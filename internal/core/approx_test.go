package core

import (
	"context"
	"errors"
	"testing"

	"sgtree/internal/dataset"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// collectLeaves walks the tree and returns every distinct leaf page id
// plus the walk's epoch.
func collectLeaves(t *testing.T, tr *Tree) ([]storage.PageID, uint64) {
	t.Helper()
	var leaves []storage.PageID
	seen := map[storage.PageID]bool{}
	epoch, err := tr.WalkLeaves(context.Background(), func(leaf storage.PageID, _ signature.Signature, _ dataset.TID) bool {
		if !seen[leaf] {
			seen[leaf] = true
			leaves = append(leaves, leaf)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return leaves, epoch
}

// TestWalkLeavesMatchesWalk: WalkLeaves visits exactly the pairs Walk
// visits, in the same order, and every pair carries a leaf page id.
func TestWalkLeavesMatchesWalk(t *testing.T) {
	for _, cfg := range slabTestConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			d := cfg.data(t, 300, 11)
			tr := buildTree(t, d, cfg.options())
			type pair struct {
				tid  dataset.TID
				area int
			}
			var want []pair
			if err := tr.Walk(func(sig signature.Signature, tid dataset.TID) bool {
				want = append(want, pair{tid, sig.Area()})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			var got []pair
			var leafIDs []storage.PageID
			epoch, err := tr.WalkLeaves(context.Background(), func(leaf storage.PageID, sig signature.Signature, tid dataset.TID) bool {
				got = append(got, pair{tid, sig.Area()})
				leafIDs = append(leafIDs, leaf)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if epoch != tr.Epoch() {
				t.Fatalf("WalkLeaves epoch %d != Tree.Epoch %d", epoch, tr.Epoch())
			}
			if len(got) != len(want) {
				t.Fatalf("WalkLeaves visited %d pairs, Walk visited %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pair %d: WalkLeaves %+v != Walk %+v", i, got[i], want[i])
				}
				if leafIDs[i] == storage.InvalidPage {
					t.Fatalf("pair %d: invalid leaf page id", i)
				}
			}
		})
	}
}

// TestCandidateQueriesCompleteLeafSet: restricted to the complete leaf
// set, the candidate scans must reproduce the exact kNN and range
// answers on every tree configuration — same ids, same distances.
func TestCandidateQueriesCompleteLeafSet(t *testing.T) {
	for _, cfg := range slabTestConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			d := cfg.data(t, 400, 12)
			tr := buildTree(t, d, cfg.options())
			leaves, epoch := collectLeaves(t, tr)
			eps := 6.0
			if cfg.metric != signature.Hamming {
				eps = 0.7
			}
			oracle := func(q signature.Signature, tid dataset.TID) float64 {
				return signature.Distance(cfg.metric, q, sigOf(t, cfg.universe, d.Tx[int(tid)]))
			}
			for qi, q := range cfg.queries(d, 13) {
				wantNN, _, err := tr.KNN(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				gotNN, _, err := tr.CandidateKNN(q, 10, epoch, leaves)
				if err != nil {
					t.Fatal(err)
				}
				assertSameNeighbors(t, "knn", qi, q, gotNN, wantNN, oracle)

				wantR, _, err := tr.RangeSearch(q, eps)
				if err != nil {
					t.Fatal(err)
				}
				gotR, _, err := tr.CandidateRange(q, eps, epoch, leaves)
				if err != nil {
					t.Fatal(err)
				}
				assertSameNeighbors(t, "range", qi, q, gotR, wantR, oracle)
			}
		})
	}
}

// assertSameNeighbors compares two (distance-sorted) result lists. The
// distance sequences must be identical; ids may differ only where
// distances tie, and any differing id is checked against the
// brute-force oracle to confirm it really lies at that exact distance —
// a legal alternative resolution of the tie, not a wrong answer.
func assertSameNeighbors(t *testing.T, what string, qi int, q signature.Signature, got, want []Neighbor, oracle func(signature.Signature, dataset.TID) float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s query %d: %d results != %d exact", what, qi, len(got), len(want))
	}
	seen := map[dataset.TID]bool{}
	for i := range want {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("%s query %d result %d: dist %v != %v", what, qi, i, got[i].Dist, want[i].Dist)
		}
		if seen[got[i].TID] {
			t.Fatalf("%s query %d: duplicate tid %d", what, qi, got[i].TID)
		}
		seen[got[i].TID] = true
		if got[i].TID != want[i].TID {
			if d := oracle(q, got[i].TID); d != got[i].Dist {
				t.Fatalf("%s query %d result %d: tid %d reported at dist %v, oracle says %v",
					what, qi, i, got[i].TID, got[i].Dist, d)
			}
		}
	}
}

// TestCandidateSubsetOfLeaves: with a partial leaf set the range scan
// returns a subset of the exact answer and never a false positive.
func TestCandidateSubsetOfLeaves(t *testing.T) {
	cfg := slabTestConfigs[0]
	d := cfg.data(t, 400, 14)
	tr := buildTree(t, d, cfg.options())
	leaves, epoch := collectLeaves(t, tr)
	half := leaves[:len(leaves)/2]
	q := cfg.queries(d, 15)[0]
	exact, _, err := tr.RangeSearch(q, 8)
	if err != nil {
		t.Fatal(err)
	}
	inExact := map[dataset.TID]float64{}
	for _, nb := range exact {
		inExact[nb.TID] = nb.Dist
	}
	got, _, err := tr.CandidateRange(q, 8, epoch, half)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range got {
		d, ok := inExact[nb.TID]
		if !ok {
			t.Fatalf("candidate range returned tid %d not in the exact answer", nb.TID)
		}
		if d != nb.Dist {
			t.Fatalf("tid %d: candidate distance %v != exact %v", nb.TID, nb.Dist, d)
		}
	}
}

// TestCandidateStaleEpoch: after any update the previously harvested
// epoch must be rejected, and a fresh walk must succeed again.
func TestCandidateStaleEpoch(t *testing.T) {
	cfg := slabTestConfigs[0]
	d := cfg.data(t, 200, 16)
	tr := buildTree(t, d, cfg.options())
	leaves, epoch := collectLeaves(t, tr)
	q := cfg.queries(d, 17)[0]

	if err := tr.Insert(sigOf(t, cfg.universe, d.Tx[0]), dataset.TID(9999)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.CandidateKNN(q, 5, epoch, leaves); !errors.Is(err, ErrStaleLeaves) {
		t.Fatalf("CandidateKNN after update: err = %v, want ErrStaleLeaves", err)
	}
	if _, _, err := tr.CandidateRange(q, 5, epoch, leaves); !errors.Is(err, ErrStaleLeaves) {
		t.Fatalf("CandidateRange after update: err = %v, want ErrStaleLeaves", err)
	}

	leaves, epoch = collectLeaves(t, tr)
	if _, _, err := tr.CandidateKNN(q, 5, epoch, leaves); err != nil {
		t.Fatalf("CandidateKNN after re-walk: %v", err)
	}
}

// TestCandidateRejectsNonLeaf: a directory page id in the candidate set
// is an error, not a silent mis-scan.
func TestCandidateRejectsNonLeaf(t *testing.T) {
	cfg := slabTestConfigs[0]
	d := cfg.data(t, 400, 18)
	tr := buildTree(t, d, cfg.options())
	if tr.Height() < 2 {
		t.Fatalf("want a multi-level tree, height = %d", tr.Height())
	}
	_, epoch := collectLeaves(t, tr)
	snap := tr.pinSnapshot()
	root := snap.root
	snap.release()
	q := cfg.queries(d, 19)[0]
	if _, _, err := tr.CandidateKNN(q, 5, epoch, []storage.PageID{root}); err == nil {
		t.Fatal("CandidateKNN on a directory page id: err = nil, want error")
	}
}
