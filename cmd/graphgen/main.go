// Command graphgen generates the paper's Erdős–Rényi test graphs
// (§5.1: p_e = 1.1·ln(n)/n, uniform weights) and writes them as an edge
// list via graph.WriteEdgeList: one "u v w" line per undirected edge,
// preceded by a "n m" header. The same file feeds apsp -input for solving
// and apsp-serve -graph for path reconstruction, so a persisted distance
// store is always reproducible from its saved graph.
//
// Usage:
//
//	graphgen -n 4096 -seed 42 -o graph.txt
//	graphgen -n 1024 -p 0.01                  # explicit edge probability, stdout
//	graphgen -n 1024 -weights unit            # hop-count graphs (all weights 1)
//	graphgen -n 1024 -weights int -maxw 100   # integer weights in [1, 100]
//	graphgen -n 65536 -avg-degree 16 -connect # sparse benchmark graph, no
//	                                          # unreachable pairs
//
// -weights selects the edge-weight distribution:
//
//	uniform   weights uniform in [1, maxw) — the paper's default
//	unit      every weight 1 (shortest paths become hop counts)
//	int       integer weights uniform in [1, maxw]
//
// -avg-degree d is the sparse-benchmark alternative to -p: it samples
// G(n, d/(n-1)), so the expected average degree is d regardless of n.
// -connect adds a ring backbone 0–1–…–(n-1)–0 (weights drawn from the
// same distribution) guaranteeing a single connected component, so
// sparse APSP benchmarks carry no unreachable-pair noise.
//
// Edge placement depends only on -n, the edge probability and -seed, so
// changing -weights re-weights the exact same topology, and adding
// -connect only adds the backbone — the random edges stay identical.
//
// -model planted switches from G(n, p) to a planted-partition graph: n
// vertices split into -communities near-equal groups, intra-community
// edges sampled at -intra-p and inter-community edges at -inter-p.
// Leaving the probabilities negative derives them from -avg-degree
// (default 16): ~90% of each vertex's expected edges stay inside its
// community. Planted graphs have genuine cluster structure, unlike
// uniform G(n, p):
//
//	graphgen -model planted -n 65536 -communities 64 -connect -o g.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"apspark/internal/fsx"
	"apspark/internal/graph"
)

func main() {
	var (
		n       = flag.Int("n", 1024, "number of vertices")
		p       = flag.Float64("p", -1, "edge probability (default: the paper's 1.1*ln(n)/n)")
		avgDeg  = flag.Float64("avg-degree", 0, "sparse mode: target average degree (sets p = d/(n-1); overrides -p)")
		connect = flag.Bool("connect", false, "add a ring backbone so the graph is connected (no unreachable pairs)")
		maxW    = flag.Float64("maxw", 10, "weight scale: uniform draws from [1, maxw), int from [1, maxw]")
		weights = flag.String("weights", "uniform", "weight distribution: uniform | unit | int")
		seed    = flag.Int64("seed", 42, "random seed")
		out     = flag.String("o", "", "output file (default stdout)")

		model  = flag.String("model", "er", "random-graph model: er | planted")
		comms  = flag.Int("communities", 16, "planted model: number of communities")
		intraP = flag.Float64("intra-p", -1, "planted model: intra-community edge probability (default: derived from -avg-degree)")
		interP = flag.Float64("inter-p", -1, "planted model: inter-community edge probability (default: derived from -avg-degree)")
	)
	flag.Parse()

	wf, err := graph.WeightsByName(*weights, *maxW)
	if err != nil {
		fatal(err)
	}

	var g *graph.Graph
	var detail string
	switch *model {
	case "er":
		prob := *p
		if *avgDeg > 0 {
			prob = graph.AvgDegreeProb(*n, *avgDeg)
		} else if prob < 0 {
			prob = graph.ErdosRenyiPaperProb(*n)
		}
		gen := graph.ErdosRenyiWeighted
		if *connect {
			gen = graph.ErdosRenyiConnected
		}
		g, err = gen(*n, prob, wf, *seed)
		detail = fmt.Sprintf("p=%.6f", prob)
	case "planted":
		pin, pout := *intraP, *interP
		if pin < 0 || pout < 0 {
			// Derive from the degree target: ~90% of a vertex's expected
			// edges stay inside its community, the rest cross.
			deg := *avgDeg
			if deg <= 0 {
				deg = 16
			}
			dIn, dOut := plantedProbs(*n, *comms, deg)
			if pin < 0 {
				pin = dIn
			}
			if pout < 0 {
				pout = dOut
			}
		}
		gen := graph.PlantedPartition
		if *connect {
			gen = graph.PlantedPartitionConnected
		}
		g, err = gen(*n, *comms, pin, pout, wf, *seed)
		detail = fmt.Sprintf("communities=%d intra-p=%.6f inter-p=%.6f", *comms, pin, pout)
	default:
		fatal(fmt.Errorf("unknown -model %q (want er or planted)", *model))
	}
	if err != nil {
		fatal(err)
	}

	if *out == "" {
		if err := g.WriteEdgeList(os.Stdout); err != nil {
			fatal(err)
		}
	} else if err := writeOut(*out, g); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "graphgen: model=%s n=%d m=%d %s weights=%s connected=%v\n",
		*model, g.N, g.NumEdges(), detail, *weights, g.Connected())
}

// plantedProbs converts a target average degree into (intra, inter) edge
// probabilities with a 90/10 intra/inter split, clamped to [0, 1].
func plantedProbs(n, k int, deg float64) (pin, pout float64) {
	if k <= 0 || n <= 1 {
		return 0, 0
	}
	size := float64(n) / float64(k)
	if size > 1 {
		pin = 0.9 * deg / (size - 1)
	}
	if float64(n) > size {
		pout = 0.1 * deg / (float64(n) - size)
	}
	return min(pin, 1), min(pout, 1)
}

// writeOut publishes g's edge list at path through fsx.Pending, so -o
// never leaves a truncated edge list behind: readers see either the old
// file or the complete new one, even if graphgen is killed mid-write.
func writeOut(path string, g *graph.Graph) error {
	f, err := fsx.Create(path)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := g.WriteEdgeList(f); err != nil {
		return err
	}
	return f.Commit()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
