package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"sgtree"
	"sgtree/internal/dataset"
	"sgtree/internal/gen"
	"sgtree/internal/scan"
)

// universe is the Quest item universe of every workload.
const universe = 1000

// Fixed query parameters of the op vocabulary.
const (
	knnK     = 10
	rangeEps = 4.0
)

// inputs are everything a workload feeds the program. The program under
// test never sees the seed, only these.
type inputs struct {
	base     *dataset.Dataset      // the D preloaded sets; id = position
	items    []sgtree.Item         // base in bulk-load form
	queries  []dataset.Transaction // population of kNN, range and approx queries
	prefixes []dataset.Transaction // population of containment queries: 3-item prefixes of stored sets
	inserts  []dataset.Transaction // population of sets to write; set j gets id D+j
	checks   []dataset.Transaction // the oracle sample
	seed     int64
}

// dataSeed fixes the Quest itemset pool, the preloaded dataset and the
// populations the closed-loop ops walk: like T, I and D they are part of
// what a workload is. -seed decides which sets the open-loop write stream
// adds and in what order, when open-loop requests arrive, and which
// queries the oracle checks — the way a database benchmark loads one
// dataset and seeds its run phase. A closed-loop lane thereby does the same
// work whatever the seed, so that two runs differ by what the box did, not
// by which queries they drew. (Drawing dataset and queries per seed moved
// tree shape, cache hit rates and the per-query cost mix by more than any
// bound; see README.md.)
const dataSeed = 14

func makeInputs(t, i, d int, seed int64, nQueries, nInserts, nChecks int) (*inputs, error) {
	q, err := gen.NewQuest(gen.QuestConfig{NumTransactions: d, AvgSize: t, AvgItemsetSize: i, NumItems: universe, Seed: dataSeed})
	if err != nil {
		return nil, err
	}
	in := &inputs{
		base:    q.Generate(),
		queries: q.Queries(nQueries, dataSeed*1000+1),
		inserts: q.Queries(nInserts, dataSeed*1000+2),
		checks:  q.Queries(nChecks, seed*1000+3),
		seed:    seed,
	}
	in.items = make([]sgtree.Item, len(in.base.Tx))
	for id, tx := range in.base.Tx {
		in.items[id] = sgtree.Item{ID: uint32(id), Items: tx}
	}
	in.prefixes = storedPrefixes(in.base, nQueries)
	return in, nil
}

// storedPrefixes draws n containment queries, each the first three items
// of a stored set, so that every one of them has an answer.
func storedPrefixes(base *dataset.Dataset, n int) []dataset.Transaction {
	r := rand.New(rand.NewSource(dataSeed*1000 + 4))
	out := make([]dataset.Transaction, 0, n)
	for len(out) < n {
		if tx := base.Tx[r.Intn(len(base.Tx))]; len(tx) >= 3 {
			out = append(out, tx[:3])
		}
	}
	return out
}

// prefix returns the inputs cut down to the first n base sets (all of them
// if there are fewer), with the same query and write populations and
// containment queries drawn from the sets that are left.
func (in *inputs) prefix(n int) *inputs {
	if n > len(in.base.Tx) {
		n = len(in.base.Tx)
	}
	sub := *in
	sub.base = in.base.Slice(0, n)
	sub.items = in.items[:n]
	sub.prefixes = storedPrefixes(sub.base, len(in.prefixes))
	return &sub
}

// insertID is the id the j-th set of the write population is stored under.
func (in *inputs) insertID(j int) uint32 { return uint32(len(in.base.Tx) + j) }

// model shadows what the program under test should hold when a run ends:
// the base sets plus the sets the open-loop write stream added. (The
// closed-loop lanes take out again whatever they put in.) The stream takes
// its sets from the far end of the write population, in an order the seed
// picks, so it never collides with a closed-loop script.
type model struct {
	in    *inputs
	order []int           // the stream's walk through the write population
	added int             // order[:added] were sent
	extra map[uint32]bool // ids acknowledged
}

func newModel(in *inputs) *model {
	n := len(in.inserts) / 2
	order := rand.New(rand.NewSource(in.seed*1000 + 5)).Perm(n)
	for i := range order {
		order[i] += len(in.inserts) - n
	}
	return &model{in: in, order: order, extra: map[uint32]bool{}}
}

// nextInsert hands out the next set of the write stream and its id.
func (m *model) nextInsert() (uint32, dataset.Transaction, error) {
	if m.added >= len(m.order) {
		return 0, nil, fmt.Errorf("write stream exhausted after %d inserts", m.added)
	}
	j := m.order[m.added]
	m.added++
	return m.in.insertID(j), m.in.inserts[j], nil
}

func (m *model) get(id uint32) dataset.Transaction {
	d := len(m.in.base.Tx)
	if int(id) < d {
		return m.in.base.Tx[id]
	}
	return m.in.inserts[int(id)-d]
}

func (m *model) live(id uint32) bool { return int(id) < len(m.in.base.Tx) || m.extra[id] }

func (m *model) len() int { return len(m.in.base.Tx) + len(m.extra) }

// contents returns the live sets as a dataset for the scan oracle, with
// the id each position stands for.
func (m *model) contents() (*dataset.Dataset, []uint32) {
	d := dataset.New(universe)
	ids := make([]uint32, 0, m.len())
	for id := range m.in.base.Tx {
		d.AddTransaction(m.in.base.Tx[id])
		ids = append(ids, uint32(id))
	}
	for j := range m.in.inserts {
		if id := m.in.insertID(j); m.extra[id] {
			d.AddTransaction(m.in.inserts[j])
			ids = append(ids, id)
		}
	}
	return d, ids
}

// verdict is the outcome of the correctness gate.
type verdict struct {
	attempted, failed int
	firstFailure      string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if v.firstFailure == "" {
		v.firstFailure = fmt.Sprintf(format, args...)
	}
}

// expected is the oracle's answer to one check query.
type expected struct {
	knn      []scan.Neighbor
	rng      []scan.Neighbor
	contains []dataset.TID
}

// verify puts n seeded queries per op type to t and compares every answer
// with the internal/scan oracle over the model's contents: exact kNN must
// return the oracle's distance multiset with each id at its true distance,
// range and containment the oracle's id set, and approx kNN a duplicate-
// free set of live ids at exact distances. breakOracle shifts the expected kNN
// distances, which must make the gate fail (the test of the gate itself).
func verify(t target, m *model, n int, withApprox, breakOracle bool) verdict {
	var v verdict
	data, ids := m.contents()
	oracle := scan.New(data)
	if n > len(m.in.checks) {
		n = len(m.in.checks)
	}
	want := make([]expected, n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ { // the oracle is the slow side; use both cores
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				q := m.in.checks[i]
				want[i].knn, _ = oracle.KNN(q, knnK)
				want[i].rng, _ = oracle.RangeSearch(q, rangeEps)
				want[i].contains = oracle.Containment(m.in.prefixes[i%len(m.in.prefixes)])
			}
		}(w)
	}
	wg.Wait()
	if breakOracle {
		for i := range want {
			for j := range want[i].knn {
				want[i].knn[j].Dist++
			}
		}
	}

	for i := 0; i < n; i++ {
		q := m.in.checks[i]

		v.attempted++
		got, _, err := t.KNN(q, knnK)
		if err != nil {
			v.fail("knn check %d: %v", i, err)
		} else if msg := checkMatches(m, q, got); msg != "" {
			v.fail("knn check %d: %s", i, msg)
		} else if msg := sameDistances(got, want[i].knn); msg != "" {
			v.fail("knn check %d: %s", i, msg)
		}

		v.attempted++
		got, _, err = t.Range(q, rangeEps)
		if err != nil {
			v.fail("range check %d: %v", i, err)
		} else if msg := checkMatches(m, q, got); msg != "" {
			v.fail("range check %d: %s", i, msg)
		} else if msg := sameIDs(matchIDs(got), neighborIDs(want[i].rng, ids)); msg != "" {
			v.fail("range check %d: %s", i, msg)
		}

		v.attempted++
		gotIDs, _, err := t.Contains(m.in.prefixes[i%len(m.in.prefixes)])
		if err != nil {
			v.fail("contains check %d: %v", i, err)
		} else {
			wantIDs := make([]uint32, len(want[i].contains))
			for j, tid := range want[i].contains {
				wantIDs[j] = ids[tid]
			}
			if msg := sameIDs(gotIDs, wantIDs); msg != "" {
				v.fail("contains check %d: %s", i, msg)
			}
		}

		if !withApprox {
			continue
		}
		v.attempted++
		got, _, err = t.Approx(q, knnK)
		if err != nil {
			v.fail("approx check %d: %v", i, err)
			continue
		}
		if msg := checkMatches(m, q, got); msg != "" {
			v.fail("approx check %d: %s", i, msg)
			continue
		}
		// Route mode verifies its candidates exactly, so the matches are
		// true (id, distance) pairs and a full answer cannot beat the exact
		// one: its k-th distance is at least the oracle's.
		if exact := want[i].knn; !breakOracle && len(got) == len(exact) && len(exact) > 0 {
			if got[len(got)-1].Distance < exact[len(exact)-1].Dist {
				v.fail("approx check %d: k-th match at %g, nearer than the oracle's %g", i, got[len(got)-1].Distance, exact[len(exact)-1].Dist)
			}
		}
	}
	return v
}

// recallAt10 puts the first n queries of the fixed population to t's approx
// tier and scores them against the oracle over data (position = id): the
// share of the exact top-10 returned, ties at the 10th distance counting.
// The sample does not depend on the seed, so the figure repeats exactly for
// one commit. Every match must be at its true distance; the rest of the
// approx contract is the correctness gate's business.
func recallAt10(t target, m *model, n int) (recall float64, v verdict) {
	data, _ := m.contents()
	oracle := scan.New(data)
	if n > len(m.in.queries) {
		n = len(m.in.queries)
	}
	kth := make([]float64, n)
	size := make([]int, n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ { // the oracle is the slow side; use both cores
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				if exact, _ := oracle.KNN(m.in.queries[i], knnK); len(exact) > 0 {
					kth[i], size[i] = exact[len(exact)-1].Dist, len(exact)
				}
			}
		}(w)
	}
	wg.Wait()
	hits, possible := 0, 0
	for i := 0; i < n; i++ {
		v.attempted++
		got, _, err := t.Approx(m.in.queries[i], knnK)
		if err != nil {
			v.fail("recall query %d: %v", i, err)
			continue
		}
		if msg := checkMatches(m, m.in.queries[i], got); msg != "" {
			v.fail("recall query %d: %s", i, msg)
			continue
		}
		found := 0
		for _, mt := range got {
			if mt.Distance <= kth[i] {
				found++
			}
		}
		if found > size[i] {
			found = size[i]
		}
		hits += found
		possible += size[i]
	}
	if possible > 0 {
		recall = float64(hits) / float64(possible)
	}
	return recall, v
}

// checkMatches verifies that every match names a live set at its true
// Hamming distance from q, in non-decreasing distance order, and that no id
// repeats.
func checkMatches(m *model, q dataset.Transaction, got []sgtree.Match) string {
	seen := map[uint32]bool{}
	for i, mt := range got {
		if !m.live(mt.ID) {
			return fmt.Sprintf("id %d is not stored", mt.ID)
		}
		if d := float64(q.Hamming(m.get(mt.ID))); d != mt.Distance {
			return fmt.Sprintf("id %d reported at %g, true distance %g", mt.ID, mt.Distance, d)
		}
		if i > 0 && got[i-1].Distance > mt.Distance {
			return "matches out of distance order"
		}
		if seen[mt.ID] {
			return fmt.Sprintf("id %d returned twice", mt.ID)
		}
		seen[mt.ID] = true
	}
	return ""
}

func sameDistances(got []sgtree.Match, want []scan.Neighbor) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d matches, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Distance != want[i].Dist {
			return fmt.Sprintf("rank %d at distance %g, oracle %g", i, got[i].Distance, want[i].Dist)
		}
	}
	return ""
}

func matchIDs(ms []sgtree.Match) []uint32 {
	out := make([]uint32, len(ms))
	for i, mt := range ms {
		out[i] = mt.ID
	}
	return out
}

func neighborIDs(ns []scan.Neighbor, ids []uint32) []uint32 {
	out := make([]uint32, len(ns))
	for i, nb := range ns {
		out[i] = ids[nb.TID]
	}
	return out
}

func sameIDs(got, want []uint32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d ids, oracle has %d", len(got), len(want))
	}
	g := append([]uint32(nil), got...)
	w := append([]uint32(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("id set differs at %d: got %d, oracle %d", i, g[i], w[i])
		}
	}
	return ""
}
