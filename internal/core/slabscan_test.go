package core

import (
	"math"
	"math/rand"
	"testing"

	"sgtree/internal/dataset"
	"sgtree/internal/gen"
	"sgtree/internal/scan"
	"sgtree/internal/signature"
	"sgtree/internal/storage"
)

// Property tests for the batched slab scans (slabscan.go), the one way a
// query traversal scores a node: on real trees, slabBounds/slabDistances
// must be bit-identical to the per-entry bound and distance references,
// and every query engine must return the brute-force answer.

// slabTestConfig is one tree configuration under test; fixedCard makes the
// generated transactions all the same size so FixedCardinality trees accept
// them.
type slabTestConfig struct {
	name      string
	universe  int
	metric    signature.Metric
	cardStats bool
	fixedCard int
	compress  bool
	pageSize  int // 0 keeps testOptions' page size
	nodeCache int // NodeCacheSize; -1 disables the decoded-node cache
}

// slabTestConfigs covers every slabBounds/slabDistances branch: the three
// AndCountSlab finishers (card-range, fixed-card, generic metric) and the
// direct Hamming kernels, at universes on both sides of the stride padding
// boundary (200 bits -> 4 words, stride 4, no padding; 300 bits -> 5
// words, stride 8, 3 padded words per row and a padded query). The last
// two cover a query path with no decoded-node cache, which must still get
// the area cache the Jaccard finisher reads, and rows wider than 128 words
// (8,200 bits -> 129 words, stride 136).
var slabTestConfigs = []slabTestConfig{
	{name: "hamming", universe: 200, metric: signature.Hamming, compress: true},
	{name: "hamming-padded", universe: 300, metric: signature.Hamming},
	{name: "hamming-cardstats", universe: 300, metric: signature.Hamming, cardStats: true, compress: true},
	{name: "hamming-fixedcard", universe: 200, metric: signature.Hamming, fixedCard: 6},
	{name: "jaccard", universe: 300, metric: signature.Jaccard, compress: true},
	{name: "dice", universe: 200, metric: signature.Dice},
	{name: "cosine", universe: 300, metric: signature.Cosine, compress: true},
	{name: "jaccard-nocache", universe: 300, metric: signature.Jaccard, nodeCache: -1},
	{name: "hamming-wide", universe: 8200, metric: signature.Hamming, compress: true, pageSize: 8192},
}

func (c slabTestConfig) options() Options {
	opts := testOptions(c.universe)
	opts.Metric = c.metric
	opts.CardStats = c.cardStats
	opts.FixedCardinality = c.fixedCard
	opts.Compress = c.compress
	opts.NodeCacheSize = c.nodeCache
	if c.pageSize > 0 {
		opts.PageSize = c.pageSize
	}
	return opts
}

// data builds the config's dataset: clustered Quest data normally, uniform
// fixed-size transactions when the tree declares a fixed cardinality.
func (c slabTestConfig) data(t *testing.T, n int, seed int64) *dataset.Dataset {
	t.Helper()
	if c.fixedCard > 0 {
		rng := rand.New(rand.NewSource(seed))
		d := dataset.New(c.universe)
		for i := 0; i < n; i++ {
			items := rng.Perm(c.universe)[:c.fixedCard]
			d.Add(items...)
		}
		return d
	}
	d, err := gen.GenerateQuest(gen.QuestConfig{
		NumTransactions: n, AvgSize: 8, AvgItemsetSize: 4,
		NumItems: c.universe, NumItemsets: 50, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// queryTxs picks a handful of probe transactions: dataset members, a
// random outsider, the empty set and the whole universe (the latter two
// stress the zero/degenerate branches of the metric finishers).
func (c slabTestConfig) queryTxs(d *dataset.Dataset, seed int64) []dataset.Transaction {
	rng := rand.New(rand.NewSource(seed))
	all := make([]int, c.universe)
	for i := range all {
		all[i] = i
	}
	return []dataset.Transaction{
		d.Tx[0],
		d.Tx[d.Len()/2],
		dataset.NewTransaction(rng.Perm(d.Universe)[:5]...),
		dataset.NewTransaction(),
		dataset.NewTransaction(all...),
	}
}

// queries is queryTxs as signatures.
func (c slabTestConfig) queries(d *dataset.Dataset, seed int64) []signature.Signature {
	m := signature.NewDirectMapper(d.Universe)
	var qs []signature.Signature
	for _, q := range c.queryTxs(d, seed) {
		qs = append(qs, signature.FromItems(m, q))
	}
	return qs
}

// oracle is the brute-force answer every engine is checked against: each
// transaction of d not in deleted, with its exact distance from q, sorted
// by (distance, TID). Hamming distances come from internal/scan; scan has
// no normalized metrics, so those apply signature.Distance to every
// transaction.
func (c slabTestConfig) oracle(t *testing.T, d *dataset.Dataset, q dataset.Transaction, deleted map[dataset.TID]bool) []Neighbor {
	t.Helper()
	var all []Neighbor
	if c.metric == signature.Hamming {
		res, err := scan.New(d).RangeSearch(q, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range res {
			all = append(all, Neighbor{TID: nb.TID, Dist: nb.Dist})
		}
	} else {
		m := signature.NewDirectMapper(d.Universe)
		qs := signature.FromItems(m, q)
		for i, tx := range d.Tx {
			all = append(all, Neighbor{TID: dataset.TID(i), Dist: signature.Distance(c.metric, qs, signature.FromItems(m, tx))})
		}
		sortNeighbors(all)
	}
	live := all[:0]
	for _, nb := range all {
		if !deleted[nb.TID] {
			live = append(live, nb)
		}
	}
	return live
}

// walkNodes applies fn to every node of the subtree rooted at id, read the
// way queries read them (readNodeCached).
func walkNodes(t *testing.T, tr *Tree, id storage.PageID, fn func(*node)) {
	t.Helper()
	n, err := tr.readNodeCached(id)
	if err != nil {
		t.Fatal(err)
	}
	fn(n)
	if n.leaf {
		return
	}
	for i := range n.entries {
		walkNodes(t, tr, n.entries[i].child, fn)
	}
}

// TestSlabScanMatchesPerEntry is the node-level property: for every node of
// trees built under each configuration, the batched slab scan produces the
// same bounds and distances — bit-identical, not merely close — as the
// per-entry signature-package calls.
func TestSlabScanMatchesPerEntry(t *testing.T) {
	for _, cfg := range slabTestConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			d := cfg.data(t, 300, 1)
			tr := buildTree(t, d, cfg.options())
			defer tr.Close()
			queries := cfg.queries(d, 2)

			e := tr.newExec(nil)
			defer e.release()

			nodes, leaves := 0, 0
			walkNodes(t, tr, tr.root, func(n *node) {
				if n.slabStride%4 != 0 || len(n.slab) < len(n.entries)*n.slabStride {
					t.Fatalf("node %d: bad slab geometry stride=%d rows=%d len=%d",
						n.id, n.slabStride, len(n.entries), len(n.slab))
				}
				if len(n.areas) != len(n.entries) {
					t.Fatalf("node %d: %d cached areas for %d entries", n.id, len(n.areas), len(n.entries))
				}
				nodes++
				if n.leaf {
					leaves++
					checkSlabDistances(t, tr, e, n, queries)
					return
				}
				checkSlabBounds(t, tr, e, n, queries)
			})
			if nodes < 3 || leaves < 2 {
				t.Fatalf("tree too small for a meaningful check: %d nodes, %d leaves", nodes, leaves)
			}
		})
	}
}

// checkSlabBounds compares slabBounds against entryMinDist on one
// directory node.
func checkSlabBounds(t *testing.T, tr *Tree, e *executor, n *node, queries []signature.Signature) {
	t.Helper()
	for qi, q := range queries {
		e.slabBounds(n, q)
		for i := range n.entries {
			if got, want := e.bounds[i], tr.entryMinDist(q, &n.entries[i]); got != want {
				t.Fatalf("node %d query %d entry %d: slab bound %v, per-entry %v",
					n.id, qi, i, got, want)
			}
		}
	}
}

// checkSlabDistances compares slabDistances against signature.Distance on
// one leaf node.
func checkSlabDistances(t *testing.T, tr *Tree, e *executor, n *node, queries []signature.Signature) {
	t.Helper()
	for qi, q := range queries {
		e.slabDistances(n, q)
		for i := range n.entries {
			if got, want := e.bounds[i], signature.Distance(tr.opts.Metric, q, n.entries[i].sig); got != want {
				t.Fatalf("node %d query %d entry %d: slab distance %v, per-entry %v",
					n.id, qi, i, got, want)
			}
		}
	}
}

// queryFingerprint holds one query's answer from every traversal engine.
type queryFingerprint struct {
	knn     []Neighbor
	bf      []Neighbor
	rng     []Neighbor
	browsed []Neighbor
}

func fingerprint(t *testing.T, tr *Tree, q signature.Signature, k int, eps float64) queryFingerprint {
	t.Helper()
	var fp queryFingerprint
	var err error
	if fp.knn, _, err = tr.KNN(q, k); err != nil {
		t.Fatal(err)
	}
	if fp.bf, _, err = tr.KNNBestFirst(q, k); err != nil {
		t.Fatal(err)
	}
	if fp.rng, _, err = tr.RangeSearch(q, eps); err != nil {
		t.Fatal(err)
	}
	it, err := tr.NewNNIterator(q)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for len(fp.browsed) < k+5 {
		nb, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		fp.browsed = append(fp.browsed, nb)
	}
	return fp
}

// checkRanked checks a ranked answer against the oracle list want: it must
// hold the first len(got) oracle distances in order, at least n of them,
// and every returned TID must be live, distinct and at its true distance.
// Which of several tied entries fills the last slots is up to the engine.
func checkRanked(t *testing.T, label string, got, want []Neighbor, n int) {
	t.Helper()
	if n > len(want) {
		n = len(want)
	}
	if len(got) != n {
		t.Fatalf("%s: %d results, oracle has %d", label, len(got), n)
	}
	dist := make(map[dataset.TID]float64, len(want))
	for _, nb := range want {
		dist[nb.TID] = nb.Dist
	}
	seen := make(map[dataset.TID]bool, len(got))
	for i, nb := range got {
		if nb.Dist != want[i].Dist {
			t.Fatalf("%s rank %d: distance %v, oracle %v", label, i, nb.Dist, want[i].Dist)
		}
		if d, ok := dist[nb.TID]; !ok || d != nb.Dist || seen[nb.TID] {
			t.Fatalf("%s rank %d: TID %d at %v is not a live entry at that distance once", label, i, nb.TID, nb.Dist)
		}
		seen[nb.TID] = true
	}
}

// TestSlabScanQueryEquivalence is the end-to-end property: every query
// engine returns the brute-force answer, before and after deletions that
// shrink, merge and reinsert nodes along the way.
func TestSlabScanQueryEquivalence(t *testing.T) {
	for _, cfg := range slabTestConfigs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			d := cfg.data(t, 400, 3)
			tr := buildTree(t, d, cfg.options())
			defer tr.Close()
			queries := cfg.queryTxs(d, 4)
			const k = 10
			eps := 6.0
			if cfg.metric != signature.Hamming {
				eps = 0.6
			}

			m := signature.NewDirectMapper(d.Universe)
			deleted := map[dataset.TID]bool{}
			for phase, label := range []string{"initial", "after-deletes"} {
				if phase == 1 {
					for i := 0; i < d.Len(); i += 3 {
						if _, err := tr.Delete(signature.FromItems(m, d.Tx[i]), dataset.TID(i)); err != nil {
							t.Fatal(err)
						}
						deleted[dataset.TID(i)] = true
					}
				}
				for qi, q := range queries {
					want := cfg.oracle(t, d, q, deleted)
					got := fingerprint(t, tr, signature.FromItems(m, q), k, eps)
					checkRanked(t, label+" KNN", got.knn, want, k)
					checkRanked(t, label+" KNNBestFirst", got.bf, want, k)
					checkRanked(t, label+" NNIterator", got.browsed, want, k+5)
					var inRange []Neighbor
					for _, nb := range want {
						if nb.Dist <= eps {
							inRange = append(inRange, nb)
						}
					}
					if !neighborsEqual(got.rng, inRange) {
						t.Fatalf("%s query %d: RangeSearch returned %d results, oracle %d", label, qi, len(got.rng), len(inRange))
					}
				}
			}
		})
	}
}

func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
