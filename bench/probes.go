package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sgtree"
	"sgtree/internal/bitset"
	"sgtree/internal/core"
	"sgtree/internal/dataset"
	"sgtree/internal/scan"
	"sgtree/internal/signature"
	"sgtree/internal/sketch"
	"sgtree/internal/storage"
)

// The traced pass. Each probe below times calls into one layer's exported
// functions, or reads its public counters, and sets that layer's metrics;
// none of them changes the program. Sample sizes are fixed so that every
// count repeats exactly for a seed.

const (
	countOps   = 400 // ops per kind in the counts pass
	chainOps   = 150 // ops per kind replayed down the entry-point chain
	kernelReps = 40  // queries per bitset kernel
	writeOps   = 100 // insert+sync, then delete+sync, in the write probe

	serviceWriteOps = 400 // POST /insert per segment of the service's write stretch, before the quarter
)

// directMapper is the item→bit mapping of every workload's configuration
// (SignatureLength 0: one bit per item).
var directMapper = signature.NewDirectMapper(universe)

func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// probeKernels times the bitset slab kernels over one aligned slab holding
// every stored signature — which, for XOR, is also the no-tree floor: one
// flat scan of all D signatures per query.
func probeKernels(res *result, tr *tracer, in *inputs, o options) {
	d := len(in.base.Tx)
	sigs := make([]signature.Signature, d)
	stride := len(signature.New(universe).Words())
	slab := bitset.AlignedWords(d * stride)
	for i, tx := range in.base.Tx {
		sigs[i] = signature.FromItems(directMapper, tx)
		copy(slab[i*stride:(i+1)*stride], sigs[i].Words())
	}
	out := make([]int32, d)
	reps := o.sample(kernelReps)
	words := float64(d * stride)
	kernel := func(name string, fn func(q, slab []uint64, stride int, out []int32)) float64 {
		best := time.Duration(1 << 62)
		for r := 0; r < reps; r++ {
			q := signature.FromItems(directMapper, in.queries[r]).Words()
			if dur := tr.time(name, "", r, func() { fn(q, slab, stride, out) }); dur < best {
				best = dur
			}
		}
		return float64(best.Nanoseconds()) / words
	}
	res.set(perLayer, "bitset.slab_and_ns_per_word", kernel("bitset.AndCountSlab", bitset.AndCountSlab))
	res.set(perLayer, "bitset.slab_andnot_ns_per_word", kernel("bitset.AndNotCountSlab", bitset.AndNotCountSlab))
	res.set(perLayer, "bitset.slab_xor_ns_per_word", kernel("bitset.XorCountSlab", bitset.XorCountSlab))
	res.set(perLayer, "bitset.flat_scan_ms", tr.medianUs("bitset.XorCountSlab")/1e3)

	// The early-exit kernel, pairwise, with the limit a range query of
	// rangeEps prunes at.
	limit := signature.HammingPruneLimit(rangeEps, false)
	best := time.Duration(1 << 62)
	for r := 0; r < reps; r++ {
		q := signature.FromItems(directMapper, in.queries[r])
		dur := tr.time("bitset.AndNotCountAtLeast", "", r, func() {
			for _, s := range sigs {
				q.AndNotCountAtLeast(s.Bitset, limit)
			}
		})
		if dur < best {
			best = dur
		}
	}
	res.set(perLayer, "bitset.atleast_ns_per_word", float64(best.Nanoseconds())/words)
}

// probeCodec times the signature codec over the dataset's own encoded
// signatures, in the encoding the workload's configuration stores.
func probeCodec(res *result, tr *tracer, in *inputs, compress bool) {
	codec := signature.Codec{Length: universe, ForceDense: !compress}
	var buf []byte
	for _, tx := range in.base.Tx {
		buf = codec.Append(buf, signature.FromItems(directMapper, tx))
	}
	into := signature.New(universe)
	var err error
	dur := tr.time("signature.Codec.DecodeInto", "", 0, func() {
		for off := 0; off < len(buf) && err == nil; {
			var used int
			used, err = codec.DecodeInto(buf[off:], into)
			off += used
		}
	})
	if err != nil {
		res.count(1, 1, "codec probe: "+err.Error())
	}
	res.set(perLayer, "signature.decode_ns_per_sig", float64(dur.Nanoseconds())/float64(len(in.base.Tx)))
}

// probeScan times the no-index baseline on the oracle sample.
func probeScan(res *result, tr *tracer, m *model, o options) {
	data, _ := m.contents()
	oracle := scan.New(data)
	for i := 0; i < o.sample(40); i++ {
		q := m.in.checks[i%len(m.in.checks)]
		tr.time("scan.Scanner.KNN", "", i, func() { oracle.KNN(q, knnK) })
		tr.time("scan.Scanner.RangeSearch", "", i, func() { oracle.RangeSearch(q, rangeEps) })
	}
	res.set(perLayer, "scan.knn_ms_p50", tr.medianUs("scan.Scanner.KNN")/1e3)
	res.set(perLayer, "scan.range_ms_p50", tr.medianUs("scan.Scanner.RangeSearch")/1e3)
}

// counts sums the Stats the program returned for a run of one op kind.
type counts struct {
	n                       int
	nodes, compared, pruned int
}

func (c *counts) add(st sgtree.Stats) {
	c.n++
	c.nodes += st.NodesAccessed
	c.compared += st.DataCompared
	c.pruned += st.EntriesPruned
}

func (c counts) per(total int) float64 {
	if c.n == 0 {
		return 0
	}
	return float64(total) / float64(c.n)
}

// probeCounts puts a fixed run of each exact op through the workload's
// own entry point and reports the paper's figures of merit from the Stats
// each answer carries. They are counts: they repeat exactly per seed, and
// only a change to the tree's pruning may move them.
func probeCounts(res *result, t target, m *model, o options) (ops int) {
	var knn, rng, con counts
	in := m.in
	n := o.sample(countOps)
	for i := 0; i < n; i++ {
		q := in.queries[i%len(in.queries)]
		if _, st, err := t.KNN(q, knnK); err != nil {
			res.count(1, 1, "counts pass: "+err.Error())
		} else {
			knn.add(st)
		}
		if _, st, err := t.Range(q, rangeEps); err != nil {
			res.count(1, 1, "counts pass: "+err.Error())
		} else {
			rng.add(st)
		}
		if _, st, err := t.Contains(in.prefixes[i%len(in.prefixes)]); err != nil {
			res.count(1, 1, "counts pass: "+err.Error())
		} else {
			con.add(st)
		}
	}
	res.count(3*n, 0, "")
	size := float64(m.len())
	res.set(perLayer, "core.nodes_read_per_knn", knn.per(knn.nodes))
	res.set(perLayer, "core.data_compared_frac_knn", knn.per(knn.compared)/size)
	res.set(perLayer, "core.entries_pruned_per_knn", knn.per(knn.pruned))
	res.set(perLayer, "core.nodes_read_per_range", rng.per(rng.nodes))
	res.set(perLayer, "core.data_compared_frac_range", rng.per(rng.compared)/size)
	res.set(perLayer, "core.nodes_read_per_contains", con.per(con.nodes))
	return 3 * n
}

// storeCounters are the cumulative storage-side counters of one index.
type storeCounters struct {
	pool  storage.BufferStats
	pager storage.PagerStats
	wal   storage.WALStats
}

func storeCountersOf(ix *sgtree.Index) storeCounters {
	pool := ix.Tree().Pool()
	return storeCounters{pool: pool.Stats(), pager: pool.Pager().Stats(), wal: pool.WALStats()}
}

// chainLibrary replays the same queries at successively lower public
// entry points of the library: Index → signature.FromItems + core.Tree.
// Each level is a pass of its own over the whole sample, so on a system
// whose caches do not hold the working set every level meets the same
// (cold-ish) cache state instead of the lower one inheriting the upper's.
// A layer's self time is its span minus the spans one level down.
func chainLibrary(res *result, tr *tracer, ix *sgtree.Index, in *inputs, o options) {
	ctx := context.Background()
	tree := ix.Tree()
	n := o.sample(chainOps)
	sigs := make([]signature.Signature, n)
	var scanned, stride float64

	for i := 0; i < n; i++ {
		q := in.queries[i]
		tr.time("sgtree.Index.KNN", "", i, func() { ix.KNNContext(ctx, q, knnK) })
	}
	for i := 0; i < n; i++ {
		q := in.queries[i]
		tr.time("signature.FromItems", "sgtree.Index.KNN", i, func() { sigs[i] = signature.FromItems(directMapper, q) })
	}
	for i := 0; i < n; i++ {
		tr.time("core.Tree.KNN", "sgtree.Index.KNN", i, func() {
			_, st, _ := tree.KNNContext(ctx, sigs[i], knnK)
			scanned += float64(st.DataCompared + st.EntriesTested)
		})
	}
	for i := 0; i < n; i++ {
		tr.time("core.Tree.Range", "sgtree.Index.Range", i, func() { tree.RangeSearchContext(ctx, sigs[i], rangeEps) })
	}
	for i := 0; i < n; i++ {
		s := signature.FromItems(directMapper, in.prefixes[i])
		tr.time("core.Tree.Containment", "sgtree.Index.Containing", i, func() { tree.ContainmentContext(ctx, s) })
	}
	stride = float64(len(signature.New(universe).Words()))

	res.set(perLayer, "signature.encode_ns", tr.medianUs("signature.FromItems")*1e3)
	res.set(perLayer, "core.knn_us", tr.medianUs("core.Tree.KNN"))
	res.set(perLayer, "core.range_us", tr.medianUs("core.Tree.Range"))
	res.set(perLayer, "core.contains_us", tr.medianUs("core.Tree.Containment"))
	res.set(perLayer, "sgtree.index_self_us",
		tr.medianUs("sgtree.Index.KNN")-tr.medianUs("signature.FromItems")-tr.medianUs("core.Tree.KNN"))

	// How much of a kNN's time the distance kernels can account for:
	// entries scanned × words per entry × the slab XOR kernel's ns/word.
	if knnUs := tr.medianUs("core.Tree.KNN"); knnUs > 0 {
		kernelUs := scanned / float64(n) * stride * res.Metrics["bitset.slab_xor_ns_per_word"].Value / 1e3
		res.set(perLayer, "core.kernel_share_est", kernelUs/knnUs)
	}

	// What a decoded-node cache miss costs: a query right after DropCaches
	// against the same query warm, per node read.
	var missUs []float64
	for i := 0; i < o.sample(20); i++ {
		if err := tree.DropCaches(); err != nil {
			res.count(1, 1, "DropCaches: "+err.Error())
			break
		}
		var st core.QueryStats
		cold := tr.time("core.Tree.KNN.cold", "", i, func() { _, st, _ = tree.KNNContext(ctx, sigs[i], knnK) })
		warm := tr.time("core.Tree.KNN.warm", "", i, func() { tree.KNNContext(ctx, sigs[i], knnK) })
		if st.NodesAccessed > 0 {
			missUs = append(missUs, usOf(cold-warm)/float64(st.NodesAccessed))
		}
	}
	res.set(perLayer, "core.node_miss_us", median(missUs))
}

// probePool replays the page ids the sample queries visited — recorded
// from outside with a per-query Observer — through stand-alone buffer
// pools over the index's own pager: once with every page resident (the
// cost of a hit) and once through a cold pool of the index's capacity in
// first-touch order (the cost of a miss: pager read plus, past capacity,
// an eviction).
func probePool(res *result, tr *tracer, ix *sgtree.Index, in *inputs, o options) {
	var visited []storage.PageID
	obs := &sgtree.FuncObserver{NodeVisit: func(id sgtree.PageID, _ bool) { visited = append(visited, id) }}
	ctx := sgtree.WithObserver(context.Background(), obs)
	for i := 0; i < o.sample(chainOps); i++ {
		ix.KNNContext(ctx, in.queries[i], knnK)
	}
	if len(visited) == 0 {
		return
	}
	seen := map[storage.PageID]bool{}
	var first []storage.PageID
	for _, id := range visited {
		if !seen[id] {
			seen[id] = true
			first = append(first, id)
		}
	}
	pager := ix.Tree().Pool().Pager()
	replay := func(pool *storage.BufferPool, ids []storage.PageID) error {
		for _, id := range ids {
			if _, err := pool.Get(id); err != nil {
				return err
			}
			pool.Unpin(id, false)
		}
		return nil
	}
	var err error
	cold := storage.NewBufferPool(pager, ix.Tree().Pool().Capacity())
	miss := tr.time("storage.BufferPool.Get.miss", "", 0, func() { err = replay(cold, first) })
	hot := storage.NewBufferPool(pager, len(first)+8)
	if err == nil {
		err = replay(hot, first)
	}
	hit := tr.time("storage.BufferPool.Get.hit", "", 0, func() {
		if err == nil {
			err = replay(hot, visited)
		}
	})
	if err != nil {
		res.count(1, 1, "pool probe: "+err.Error())
		return
	}
	res.set(perLayer, "storage.pool_get_miss_us", usOf(miss)/float64(len(first)))
	res.set(perLayer, "storage.pool_get_hit_ns", float64(hit.Nanoseconds())/float64(len(visited)))
}

// probeWrites times the write path one level below the facade — a span
// around core.Tree.Insert, one around Index.Sync, then the same for
// Delete — and divides the WAL and pager counter deltas by the writes
// acknowledged. The deletes take out what the inserts put in, so the
// contents, and the model, end where they began.
func probeWrites(res *result, tr *tracer, ix *sgtree.Index, in *inputs, o options) {
	tree := ix.Tree()
	n := o.sample(writeOps)
	base := uint32(1 << 30) // ids no other lane uses
	before := storeCountersOf(ix)
	fail := func(err error) {
		if err != nil {
			res.count(1, 1, "write probe: "+err.Error())
		}
	}
	acked := make([]time.Duration, n) // an acknowledged write: the insert and its commit
	for i := 0; i < n; i++ {
		s := signature.FromItems(directMapper, in.inserts[len(in.inserts)-1-i])
		acked[i] = tr.time("core.Tree.Insert", "", i, func() { fail(tree.Insert(s, dataset.TID(base+uint32(i)))) })
		acked[i] += tr.time("sgtree.Index.Sync", "", i, func() { fail(ix.Sync()) })
	}
	for i := 0; i < n; i++ {
		s := signature.FromItems(directMapper, in.inserts[len(in.inserts)-1-i])
		tr.time("core.Tree.Delete", "", i, func() {
			if found, err := tree.Delete(s, dataset.TID(base+uint32(i))); err != nil || !found {
				fail(fmt.Errorf("delete of probe id %d: found=%v err=%v", i, found, err))
			}
		})
		tr.time("sgtree.Index.Sync", "", n+i, func() { fail(ix.Sync()) })
	}
	res.count(2*n, 0, "")
	after := storeCountersOf(ix)
	writes := float64(2 * n)
	res.set(perLayer, "storage.wal_bytes_per_write", float64(after.wal.BytesAppended-before.wal.BytesAppended)/writes)
	res.set(perLayer, "storage.wal_records_per_write", float64(after.wal.Records-before.wal.Records)/writes)
	res.set(perLayer, "storage.wal_syncs_per_write", float64(after.wal.Syncs-before.wal.Syncs)/writes)
	res.set(perLayer, "storage.pager_writes_per_write", float64(after.pager.Writes-before.pager.Writes)/writes)
	res.set(perLayer, "storage.sync_us", tr.medianUs("sgtree.Index.Sync"))
	res.set(perLayer, "storage.acked_insert_p50_ms", quantileMs(acked, 0.50))
	res.set(perLayer, "storage.acked_insert_p95_ms", quantileMs(acked, tail))
	res.set(perLayer, "core.insert_us", tr.medianUs("core.Tree.Insert"))
	res.set(perLayer, "core.delete_us", tr.medianUs("core.Tree.Delete"))
}

// probeBulkLoad times core.Tree.BulkLoad of the whole dataset into a fresh
// in-memory tree with the workload's options.
func probeBulkLoad(res *result, tr *tracer, ix *sgtree.Index, in *inputs) {
	opts := ix.Tree().Options()
	items := make([]core.BulkItem, len(in.base.Tx))
	for i, tx := range in.base.Tx {
		items[i] = core.BulkItem{Sig: signature.FromItems(directMapper, tx), TID: dataset.TID(i)}
	}
	tree, err := core.New(opts)
	if err == nil {
		dur := tr.time("core.Tree.BulkLoad", "", 0, func() { err = tree.BulkLoad(items) })
		res.set(perLayer, "core.bulkload_s", dur.Seconds())
	}
	if err != nil {
		res.count(1, 1, "bulk-load probe: "+err.Error())
	}
}

// Defaults of sgtree.SketchConfig{} the facade resolves internally: the
// register count, the default target recall, and the neighbour similarity
// its probe-count model plans for.
const (
	sketchK      = 128
	sketchRecall = 0.9
	sketchS0     = 0.5
)

// probeSketch builds a sketch index with the facade's parameters from the
// tree's own leaves, then times the three steps of a route-mode query
// separately: signing the query, probing the bands for candidate leaves,
// and verifying those leaves in the tree.
func probeSketch(res *result, tr *tracer, ix *sgtree.Index, in *inputs, o options) {
	ctx := context.Background()
	tree := ix.Tree()
	idx, err := sketch.NewIndex(sketch.Params{K: sketchK})
	if err != nil {
		res.count(1, 1, "sketch probe: "+err.Error())
		return
	}
	var epoch uint64
	var pos []uint32
	build := tr.time("sketch.Index.build", "", 0, func() {
		epoch, err = tree.WalkLeaves(ctx, func(leaf storage.PageID, sig signature.Signature, tid dataset.TID) bool {
			pos = pos[:0]
			for i := sig.NextSet(0); i >= 0; i = sig.NextSet(i + 1) {
				pos = append(pos, uint32(i))
			}
			idx.Add(uint32(tid), uint32(leaf), sig.Area(), pos)
			return true
		})
	})
	if err != nil {
		res.count(1, 1, "sketch probe: "+err.Error())
		return
	}
	idx.SetEpoch(epoch)
	res.set(perLayer, "sketch.build_s", build.Seconds())
	res.set(perLayer, "sketch.bytes_per_set", float64(idx.MemoryFootprint())/float64(idx.Len()))

	sk := idx.Sketcher()
	probe := idx.BandsForRecall(sketchRecall, sketchS0)
	regs := make([]uint32, sk.K())
	var mins []uint64
	var cs sketch.CandidateSet
	n := o.sample(chainOps)
	totalLeaves := 0
	for i := 0; i < n; i++ {
		q := signature.FromItems(directMapper, in.queries[i])
		pos = pos[:0]
		for b := q.NextSet(0); b >= 0; b = q.NextSet(b + 1) {
			pos = append(pos, uint32(b))
		}
		tr.time("sketch.Sketcher.Sketch", "sgtree.Index.ApproxKNN", i, func() { mins = sk.Sketch(pos, regs, mins) })
		var leaves []storage.PageID
		tr.time("sketch.Index.CandidateLeaves", "sgtree.Index.ApproxKNN", i, func() {
			for _, leaf := range idx.CandidateLeaves(regs, probe, &cs) {
				leaves = append(leaves, storage.PageID(leaf))
			}
		})
		totalLeaves += len(leaves)
		tr.time("core.Tree.CandidateKNN", "sgtree.Index.ApproxKNN", i, func() {
			//sglint:ignore epochcontract nothing writes to the tree during the probe; a stale epoch is a probe failure, not a case to retry
			if _, _, cerr := tree.CandidateKNNContext(ctx, q, knnK, epoch, leaves); cerr != nil && err == nil {
				err = cerr
			}
		})
	}
	if err != nil {
		res.count(1, 1, "sketch probe: "+err.Error())
	}
	res.set(perLayer, "sketch.sign_us", tr.medianUs("sketch.Sketcher.Sketch"))
	res.set(perLayer, "sketch.candidates_us", tr.medianUs("sketch.Index.CandidateLeaves"))
	res.set(perLayer, "sketch.candidate_leaves_per_query", float64(totalLeaves)/float64(n))
	res.set(perLayer, "core.candidate_knn_us", tr.medianUs("core.Tree.CandidateKNN"))
}

// copyFile copies src to dst.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// probeRecover copies a durable index's page file and log as they stand
// after its last Sync — no Close, as after a crash — and times
// sgtree.Recover on the copy; the recovered index must hold wantLen sets.
func probeRecover(res *result, tr *tracer, cfg sgtree.Config, path, dir string, wantLen int) {
	dst := filepath.Join(dir, "recover.sgt")
	err := copyFile(dst, path)
	if err == nil {
		err = copyFile(storage.WALPath(dst), storage.WALPath(path))
	}
	if err != nil {
		res.count(1, 1, "recover probe: "+err.Error())
		return
	}
	var ix *sgtree.Index
	dur := tr.time("sgtree.Recover", "", 0, func() { ix, _, err = sgtree.Recover(cfg, dst) })
	if err != nil {
		res.count(1, 1, "recover probe: "+err.Error())
		return
	}
	res.count(1, 0, "")
	if ix.Len() != wantLen {
		res.count(0, 1, fmt.Sprintf("recovered index holds %d sets, %d were acknowledged", ix.Len(), wantLen))
	}
	if err := closeIndex(ix); err != nil {
		res.count(1, 1, "recover probe: "+err.Error())
	}
	res.set(perLayer, "storage.recover_s", dur.Seconds())
}

// probeReplicaApply builds a small durable index with log retention on, a
// scratch replica bootstrapped from its log, and then times
// Replica.ApplyRedo on one shipped commit at a time.
func probeReplicaApply(res *result, tr *tracer, in *inputs, dir string, o options) {
	fail := func(err error) { res.count(1, 1, "replica probe: "+err.Error()) }
	cfg := sgtree.Config{Universe: universe, Durable: true}
	prim, err := sgtree.NewOnFile(cfg, filepath.Join(dir, "apply-primary.sgt"))
	if err != nil {
		fail(err)
		return
	}
	defer closeIndex(prim)
	wal := prim.Tree().Pool().WAL()
	wal.SetRetain(true)
	if err := prim.Sync(); err != nil {
		fail(err)
		return
	}
	replCfg := cfg
	replCfg.Durable = false
	rep, err := sgtree.CreateReplica(replCfg, filepath.Join(dir, "apply-replica.sgt"))
	if err != nil {
		fail(err)
		return
	}
	defer rep.Close()
	ship := func(op int, timed bool) error {
		recs, lsn, err := wal.StreamCommitted(rep.AppliedLSN())
		if err != nil {
			return err
		}
		if !timed {
			return rep.ApplyRedo(recs, lsn)
		}
		tr.time("sgtree.Replica.ApplyRedo", "", op, func() { err = rep.ApplyRedo(recs, lsn) })
		return err
	}
	// Preload what one shard of the service workload holds, in one commit.
	preload := len(in.items) / serveShards
	if err := prim.BulkLoad(in.items[:preload]); err == nil {
		err = prim.Sync()
	}
	if err == nil {
		err = ship(0, false)
	}
	if err != nil {
		fail(err)
		return
	}
	for i := 0; i < o.sample(40); i++ {
		if err := prim.Insert(uint32(1<<30+i), in.inserts[i]); err == nil {
			err = prim.Sync()
		}
		if err == nil {
			err = ship(i, true)
		}
		if err != nil {
			fail(err)
			return
		}
	}
	if rep.Len() != prim.Len() {
		res.count(1, 1, fmt.Sprintf("replica holds %d sets, primary %d", rep.Len(), prim.Len()))
	}
	res.set(perLayer, "sgtree.replica_apply_ms", tr.medianUs("sgtree.Replica.ApplyRedo")/1e3)
}

// handlerTransport is an http.RoundTripper that hands the request to a
// handler in-process: the same client code, JSON included, minus TCP and
// the net/http connection machinery.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// chainService replays the same kNN queries down the service's entry
// points: TCP client → Server.Handler().ServeHTTP in-process → (after the
// servers have stopped and the primary's directory is reopened as a
// library index) Sharded.KNNContext → each shard's Index.KNNContext.
func chainService(res *result, tr *tracer, s *sut, in *inputs, o options) (*sgtree.Sharded, error) {
	n := o.sample(chainOps)
	overTCP := s.t.(httpTarget)
	inProcess := overTCP
	inProcess.client = &http.Client{Transport: handlerTransport{s.pair.follower.srv.Handler()}}
	for i := 0; i < n; i++ {
		q := in.queries[i]
		tr.time("http.POST /knn", "", i, func() { overTCP.KNN(q, knnK) })
	}
	for i := 0; i < n; i++ {
		q := in.queries[i]
		tr.time("server.Handler.ServeHTTP", "http.POST /knn", i, func() { inProcess.KNN(q, knnK) })
	}

	// Below the handler the server keeps its collections to itself, so
	// the rest of the chain runs on the same shard files, reopened.
	if err := s.stop(); err != nil {
		return nil, err
	}
	s.stop = func() error { return nil }
	cfg := sgtree.Config{Universe: universe, Durable: true}
	sh, err := sgtree.OpenShardedDir(cfg, filepath.Join(s.dir, "primary", collectionName))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for i := 0; i < n; i++ { // warm: the reopened shards start cold
		sh.KNNContext(ctx, in.queries[i], knnK)
	}
	for i := 0; i < n; i++ {
		q := in.queries[i]
		tr.time("sgtree.Sharded.KNN", "server.Handler.ServeHTTP", i, func() { sh.KNNContext(ctx, q, knnK) })
	}
	var slowest, skew []float64
	for i := 0; i < n; i++ {
		q := in.queries[i]
		max, sum := 0.0, 0.0
		for j := 0; j < sh.NumShards(); j++ {
			ix := sh.Shard(j)
			us := usOf(tr.time("sgtree.Index.KNN", "sgtree.Sharded.KNN", i, func() { ix.KNNContext(ctx, q, knnK) }))
			sum += us
			if us > max {
				max = us
			}
		}
		slowest = append(slowest, max)
		skew = append(skew, max/(sum/float64(sh.NumShards())))
	}
	// A scatter waits for its slowest shard, so that is the part of the
	// Sharded span its children account for.
	res.set(perLayer, "server.http_self_us", tr.medianUs("http.POST /knn")-tr.medianUs("server.Handler.ServeHTTP"))
	res.set(perLayer, "server.handler_self_us", tr.medianUs("server.Handler.ServeHTTP")-tr.medianUs("sgtree.Sharded.KNN"))
	res.set(perLayer, "sgtree.sharded_self_us", tr.medianUs("sgtree.Sharded.KNN")-median(slowest))
	res.set(perLayer, "sgtree.shard_skew", median(skew))
	return sh, nil
}

// lagSampler polls the primary's /stats while the open lane runs and
// keeps the largest follower lag it saw: the primary's commit LSNs minus
// the positions the follower last reported, summed over shards. (The
// follower's own figure is taken under its apply lock and reads 0.)
type lagSampler struct {
	stop chan struct{}
	done chan struct{}
	max  uint64
}

func startLagSampler(p *servePair, every time.Duration) *lagSampler {
	ls := &lagSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ls.stop:
				return
			case <-tick.C:
				report, err := p.stats(p.primary)
				if err != nil {
					continue
				}
				for _, f := range report.Collections[collectionName].Followers {
					if f.Lag > ls.max {
						ls.max = f.Lag
					}
				}
			}
		}
	}()
	return ls
}

func (ls *lagSampler) finish() uint64 {
	close(ls.stop)
	<-ls.done
	return ls.max
}

// runTraced is the second pass: the workload's lanes again at a quarter
// of their op counts with a span around every op (traced against untraced
// throughput is the tracing overhead), then the probes above. It reports
// every per-layer metric and dumps the spans.
func runTraced(w workload, o options) (res *result, err error) {
	res = newResult(w, o, 1)
	for _, d := range perLayer {
		res.set(perLayer, d.name, 0)
	}
	tr := newTracer()
	s, in, _, _, err := build(w, o, 1)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	m := newModel(in)
	quarter := o
	quarter.seconds = o.seconds / 4

	// The service's open lane, with the follower's lag sampled beside it.
	if s.pair != nil {
		sampler := startLagSampler(s.pair, 250*time.Millisecond)
		steps, writes := openLane(w, s, m, quarter)
		res.set(perLayer, "server.repl_lag_lsn_max", float64(sampler.finish()))
		for i, st := range append(steps, writes) {
			res.count(st.Sent, st.Failed, st.firstFail)
			if i < len(steps) {
				res.set(perLayer, fmt.Sprintf("server.knn_p50_ms.r%g", st.Rate), st.P50Ms)
				res.set(perLayer, fmt.Sprintf("server.knn_p99_ms.r%g", st.Rate), st.P99Ms)
			}
		}
		res.set(perLayer, "server.insert_p50_ms", quantileMs(writes.byRequest, 0.50))
		res.set(perLayer, "server.insert_p90_ms", quantileMs(writes.byRequest, 0.90))
		res.set(perLayer, "server.sched_lag_ms_p99", steps[designatedStep].SchedLagP99)
		res.set(perLayer, "server.follower_stall_share", steps[designatedStep].StallShare)
		res.Detail["open_loop_steps"] = steps
		if err := s.pair.waitCaughtUp(m.len()); err != nil {
			return nil, err
		}
		// What a write costs the service in CPU time: the process's — client,
		// primary, follower and the replication of the write — over a closed-
		// loop stretch of nothing but POST /insert, per write. Over the whole
		// stretch, not per segment: a segment is a few collector cycles long,
		// and one cycle more or less would show.
		stretch := lane{t: s.t}.run(in, "I", quarter.scale(serviceWriteOps, 5), segments, true)
		res.countLane(stretch)
		var cpu time.Duration
		for _, c := range stretch.procCPU {
			cpu += c
		}
		res.set(perLayer, "server.insert_cpu_ms", ms(cpu)/float64(stretch.ops))
		if err := s.pair.waitCaughtUp(m.len()); err != nil {
			return nil, err
		}
	}

	// The closed-loop lanes untraced, then traced; the approx lanes traced,
	// on the workload's own sketch tier or on the scratch index.
	spec := w.primary
	if spec.pattern == "" {
		spec = w.traced
	}
	ops := quarter.scale(spec.ops, len(spec.pattern))
	untraced := lane{t: s.t}.run(in, spec.pattern, ops, segments, true)
	traced := lane{t: s.t, tr: tr}.run(in, spec.pattern, ops, segments, true)
	res.countLane(untraced)
	res.countLane(traced)
	base := median(untraced.opsPerSecPerSegment())
	res.set(perLayer, "lane.ops_per_s_wall", base)
	res.set(perLayer, "lane.knn_p95_ms", 0)
	if untraced.has(opKNN) {
		res.set(perLayer, "lane.knn_p95_ms", median(untraced.perSegment(opKNN, tail)))
	}
	if base > 0 {
		res.set(perLayer, "trace_overhead", median(traced.opsPerSecPerSegment())/base)
	}
	var ap approxResult
	if w.approxNative() {
		ap = approxLanes(lane{t: s.t, tr: tr}, m, w.primary.ops, churnRounds, quarter)
	} else if ap, _, err = carriedApprox(in, tr, quarter, scratchChurnRounds, nil); err != nil {
		return nil, err
	}
	for _, r := range []laneResult{ap.readOnly, ap.churn} {
		res.countLane(r)
	}
	res.count(ap.gate.attempted, ap.gate.failed, ap.gate.firstFailure)
	res.set(perLayer, "lane.approx_knn_p95_ms", median(ap.readOnly.perSegment(opApprox, tail)))
	res.set(perLayer, "lane.approx_churn_knn_mean_ms", median(ap.churn.meansMs(opApprox)))
	var stalls []time.Duration
	for _, round := range ap.churn.lat {
		stalls = append(stalls, round[1]) // the first approx query after the insert
	}
	res.set(perLayer, "sketch.rebuild_stall_ms", quantileMs(stalls, 0.50))

	// Counts, at the workload's own entry point, with the cache and pager
	// counters read at the same boundary.
	before := cacheCounters(s)
	var storeBefore storeCounters
	if s.ix != nil {
		storeBefore = storeCountersOf(s.ix)
	}
	counted := probeCounts(res, s.t, m, o)
	delta := cacheCounters(s).since(before)
	res.set(perLayer, "core.node_cache_hit_rate", delta.nodeHitRate())
	res.set(perLayer, "storage.pool_hit_rate", delta.poolHitRate())
	if s.ix != nil {
		after := storeCountersOf(s.ix)
		res.set(perLayer, "storage.pool_evictions_per_op", float64(after.pool.Evictions-storeBefore.pool.Evictions)/float64(counted))
		res.set(perLayer, "storage.pager_reads_per_op", float64(after.pager.Reads-storeBefore.pager.Reads)/float64(counted))
	} else { // /stats has no pager counters; every pool miss is one pager read
		res.set(perLayer, "storage.pager_reads_per_op", float64(delta.poolMisses)/float64(counted))
	}

	// Probes fed by the workload's data alone.
	probeKernels(res, tr, in, o)
	probeScan(res, tr, m, o)

	// Probes into the layers under the workload's entry point. The
	// service keeps those to itself, so its chain ends by reopening the
	// primary's shard files as a library index; shard 0 stands for the
	// per-index layers.
	ix := s.ix
	if s.pair != nil {
		primaryShard := filepath.Join(s.dir, "primary", collectionName, "shard-000.sgt")
		report, statsErr := s.pair.stats(s.pair.primary)
		if statsErr != nil {
			return nil, statsErr
		}
		cfg := sgtree.Config{Universe: universe, Durable: true}
		probeRecover(res, tr, cfg, primaryShard, s.dir, report.Collections[collectionName].Shard[0].Len)
		sh, chainErr := chainService(res, tr, s, in, o)
		if chainErr != nil {
			return nil, chainErr
		}
		defer func() { // the write probe wrote through shard 0: its close is a commit
			if cerr := sh.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		ix = sh.Shard(0)
	} else if s.cfg.Durable {
		probeRecover(res, tr, s.cfg, s.path, s.dir, m.len())
	}
	probeCodec(res, tr, in, ix.Tree().Options().Compress)
	chainLibrary(res, tr, ix, in, o)
	probePool(res, tr, ix, in, o)
	probeSketch(res, tr, ix, in, o)
	probeWrites(res, tr, ix, in, o)
	probeBulkLoad(res, tr, ix, in)
	if ix.Tree().Pool().WAL() != nil {
		probeReplicaApply(res, tr, in, s.dir, o)
	}

	// The library workloads end on the oracle like the untraced pass, on a
	// quarter of its sample; the service's servers are down by now, and
	// its answers were checked there.
	if s.pair == nil {
		v := verify(s.t, m, o.checks()/4, w.approxNative(), o.breakOracle)
		res.count(v.attempted, v.failed, v.firstFailure)
	}
	sort.SliceStable(tr.spans, func(i, j int) bool { return tr.spans[i].Start < tr.spans[j].Start })
	if err := tr.dump(spanDumpPath(o.out, w.name)); err != nil {
		return nil, err
	}
	res.Detail["spans"] = len(tr.spans)
	res.Detail["span_dump"] = spanDumpPath(o.out, w.name)
	res.Correct = res.Failed == 0
	return res, err
}
