package ftbfs_test

import (
	"bytes"
	"testing"

	"ftbfs"
)

// TestBuildBatchByteIdenticalToSequential is the BuildBatch acceptance
// contract: over ≥ 8 (source, ε) requests the batched structures serialise
// byte-identically (via SaveSlab, which also covers the plan arrays) to
// sequential Build calls, and every structure passes Verify.
func TestBuildBatchByteIdenticalToSequential(t *testing.T) {
	reqs := []ftbfs.BatchRequest{
		{Source: 0, Eps: 0.2},
		{Source: 0, Eps: 0.3},
		{Source: 0, Eps: 0.45},
		{Source: 5, Eps: 0.25},
		{Source: 5, Eps: 0},  // tree branch
		{Source: 11, Eps: 1}, // baseline branch
		{Source: 11, Eps: 0.35},
		{Source: 17, Eps: 0.3, Options: []ftbfs.BuildOption{ftbfs.WithAlgorithm(ftbfs.AlgoGreedy)}},
		{Source: 17, Eps: 0.2, Options: []ftbfs.BuildOption{ftbfs.WithoutPhase2()}},
	}

	save := func(st *ftbfs.Structure) string {
		var buf bytes.Buffer
		if err := st.SaveSlab(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		return buf.String()
	}

	want := make([]string, len(reqs))
	seqG := randomGraph(80, 160, 42)
	for i, r := range reqs {
		st, err := ftbfs.Build(seqG, r.Source, r.Eps, r.Options...)
		if err != nil {
			t.Fatalf("sequential build %d: %v", i, err)
		}
		want[i] = save(st)
	}

	for _, workers := range []int{1, 4} {
		batchG := randomGraph(80, 160, 42) // same seed: identical graph
		sts, err := ftbfs.BuildBatch(batchG, reqs, ftbfs.WithBatchWorkers(workers))
		if err != nil {
			t.Fatalf("BuildBatch(workers=%d): %v", workers, err)
		}
		for i, st := range sts {
			if st.Source() != reqs[i].Source || st.Epsilon() != reqs[i].Eps {
				t.Fatalf("workers=%d: result %d is for (%d, %g), want (%d, %g)",
					workers, i, st.Source(), st.Epsilon(), reqs[i].Source, reqs[i].Eps)
			}
			if got := save(st); got != want[i] {
				t.Fatalf("workers=%d: request %d not byte-identical to sequential Build", workers, i)
			}
			if err := st.Verify(); err != nil {
				t.Fatalf("workers=%d: request %d: %v", workers, i, err)
			}
		}
	}
}

func TestBuildBatchErrors(t *testing.T) {
	g := ringWithChords(20)
	if _, err := ftbfs.BuildBatch(g, []ftbfs.BatchRequest{{Source: -1, Eps: 0.3}}); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := ftbfs.BuildBatch(g, []ftbfs.BatchRequest{{Source: 0, Eps: -0.1}}); err == nil {
		t.Fatal("negative ε accepted")
	}
	sts, err := ftbfs.BuildBatch(g, nil)
	if err != nil || len(sts) != 0 {
		t.Fatalf("empty batch: got (%v, %v)", sts, err)
	}
}

func TestBuildBatchFreezesGraph(t *testing.T) {
	g := ringWithChords(15)
	if _, err := ftbfs.BuildBatch(g, []ftbfs.BatchRequest{{Source: 0, Eps: 0.3}}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Fatal("graph not frozen by BuildBatch")
	}
}
