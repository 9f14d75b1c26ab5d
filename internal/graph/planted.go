package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// PlantedPartition samples the planted-partition (clustered ER) model:
// n vertices split into k near-equal contiguous communities (the first
// n mod k communities get the extra vertex), with each intra-community
// pair present independently with probability pIntra and each
// inter-community pair with probability pInter. With pIntra ≫ pInter
// the graph has genuine cluster structure, as opposed to uniform ER
// graphs, which have no good separators at all. Sampling walks every block with
// geometric skips (cost proportional to edges, like ErdosRenyi) and is
// deterministic in (n, k, pIntra, pInter, seed).
func PlantedPartition(n, k int, pIntra, pInter float64, wf WeightFn, seed int64) (*Graph, error) {
	edges, _, err := plantedEdges(n, k, pIntra, pInter, wf, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return FromEdges(n, edges)
}

// PlantedPartitionConnected is PlantedPartition with the same
// connectivity guarantee as ErdosRenyiConnected: a ring backbone
// 0–1–…–(n-1)–0 appended after sampling, weights drawn from the same
// rng stream, so at equal parameters the random part of the topology is
// identical with or without the backbone.
func PlantedPartitionConnected(n, k int, pIntra, pInter float64, wf WeightFn, seed int64) (*Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	edges, wfn, err := plantedEdges(n, k, pIntra, pInter, wf, rng)
	if err != nil {
		return nil, err
	}
	if n > 1 {
		for u := 0; u < n; u++ {
			edges = append(edges, Edge{U: u, V: (u + 1) % n, W: wfn(rng)})
		}
	}
	return FromEdges(n, edges)
}

// plantedEdges samples the model's edge set block by block in a fixed
// order (community i's triangle, then its rectangles against every
// j > i), one geometric-skip walk per block from the shared rng.
func plantedEdges(n, k int, pIntra, pInter float64, wf WeightFn, rng *rand.Rand) ([]Edge, WeightFn, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("graph: planted partition with n=%d < 0", n)
	}
	if k < 1 || k > max(n, 1) {
		return nil, nil, fmt.Errorf("graph: planted partition with k=%d communities outside [1,%d]", k, max(n, 1))
	}
	for _, p := range [2]float64{pIntra, pInter} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, nil, fmt.Errorf("graph: edge probability %v outside [0,1]", p)
		}
	}
	if wf == nil {
		wf = UniformWeights(10)
	}
	// Community c covers [off[c], off[c+1]).
	off := make([]int, k+1)
	base, extra := n/k, n%k
	for c := 0; c < k; c++ {
		off[c+1] = off[c] + base
		if c < extra {
			off[c+1]++
		}
	}
	var edges []Edge
	for i := 0; i < k; i++ {
		si := off[i+1] - off[i]
		sampleBlock(rng, pIntra, int64(si)*int64(si-1)/2, func(idx int64) {
			u, v := unrank(idx, si)
			edges = append(edges, Edge{U: off[i] + u, V: off[i] + v, W: wf(rng)})
		})
		for j := i + 1; j < k; j++ {
			sj := off[j+1] - off[j]
			sampleBlock(rng, pInter, int64(si)*int64(sj), func(idx int64) {
				edges = append(edges, Edge{
					U: off[i] + int(idx/int64(sj)),
					V: off[j] + int(idx%int64(sj)),
					W: wf(rng),
				})
			})
		}
	}
	return edges, wf, nil
}

// sampleBlock walks linear indices [0, total) with geometric skips at
// probability p, calling place for each sampled index — sampleEdges'
// skip loop generalized to one block of pairs.
func sampleBlock(rng *rand.Rand, p float64, total int64, place func(idx int64)) {
	if p <= 0 || total <= 0 {
		return
	}
	lq := math.Log1p(-p) // log(1-p); p==1 gives -Inf and a dense block
	var idx int64
	for {
		var skip int64
		if p < 1 {
			skip = int64(math.Floor(math.Log(1-rng.Float64()) / lq))
		}
		idx += skip
		if idx >= total {
			return
		}
		place(idx)
		idx++
	}
}
