package graph

import (
	"testing"
)

func TestPlantedPartitionDeterministic(t *testing.T) {
	a, err := PlantedPartition(400, 8, 0.2, 0.005, IntegerWeights(10), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlantedPartition(400, 8, 0.2, 0.005, IntegerWeights(10), 42)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	c, err := PlantedPartition(400, 8, 0.2, 0.005, IntegerWeights(10), 43)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Edges()) == len(ea) {
		same := true
		for i, e := range c.Edges() {
			if e != ea[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestPlantedPartitionClusterStructure(t *testing.T) {
	const n, k = 600, 6
	g, err := PlantedPartition(n, k, 0.15, 0.002, UnitWeights(), 7)
	if err != nil {
		t.Fatal(err)
	}
	comm := func(v int) int { return v / (n / k) } // equal sizes: 600/6
	intra, inter := 0, 0
	for _, e := range g.Edges() {
		if comm(e.U) == comm(e.V) {
			intra++
		} else {
			inter++
		}
	}
	// Expected ≈ 6·C(100,2)·0.15 ≈ 4455 intra vs ≈ 15·100²·0.002 = 300
	// inter; a 5x margin keeps the assertion far from sampling noise.
	if intra < 5*inter {
		t.Fatalf("no planted structure: %d intra vs %d inter edges", intra, inter)
	}
	if intra == 0 || inter == 0 {
		t.Fatalf("degenerate sample: %d intra, %d inter", intra, inter)
	}
}

func TestPlantedPartitionConnectedIsConnected(t *testing.T) {
	g, err := PlantedPartitionConnected(300, 10, 0.1, 0, IntegerWeights(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("backbone did not connect the graph")
	}
	// pInter = 0: without the ring the communities are islands.
	iso, err := PlantedPartition(300, 10, 0.1, 0, IntegerWeights(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	if iso.Connected() {
		t.Fatal("pInter=0 sample unexpectedly connected without the backbone")
	}
}

func TestPlantedPartitionValidation(t *testing.T) {
	if _, err := PlantedPartition(10, 0, 0.1, 0.1, nil, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := PlantedPartition(10, 11, 0.1, 0.1, nil, 1); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := PlantedPartition(10, 2, 1.5, 0.1, nil, 1); err == nil {
		t.Fatal("pIntra>1 accepted")
	}
	if _, err := PlantedPartition(10, 2, 0.1, -0.1, nil, 1); err == nil {
		t.Fatal("pInter<0 accepted")
	}
	// Degenerate but legal corners.
	if g, err := PlantedPartition(0, 1, 0.5, 0.5, nil, 1); err != nil || g.N != 0 {
		t.Fatalf("n=0: g=%v err=%v", g, err)
	}
	if g, err := PlantedPartition(7, 7, 1, 0, nil, 1); err != nil || g.NumEdges() != 0 {
		t.Fatalf("k=n all-singleton should have no intra pairs: edges=%d err=%v", g.NumEdges(), err)
	}
}
