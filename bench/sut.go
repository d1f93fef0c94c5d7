package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sgtree"
	"sgtree/internal/server"
)

// sut is one built system under test: the target the lanes drive, the
// handles the traced pass needs to reach the layers underneath, and how to
// take it down again.
type sut struct {
	t    target
	ix   *sgtree.Index // library workloads
	cfg  sgtree.Config // library workloads: the configuration ix was built with
	path string        // library file workloads: the page file
	pair *servePair    // the service workload
	dir  string        // scratch directory holding every file of this sut
	stop func() error
}

func (s *sut) close() error {
	err := s.stop()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// diskBytes is what the page store (and its log) occupies: file sizes
// under the sut's directory, or pages × page size on the memory pager —
// the bytes the same index would take on disk.
func (s *sut) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, err
	}
	if total == 0 && s.ix != nil {
		p := s.ix.Tree().Pool().Pager()
		total = int64(p.NumPages()) * int64(p.PageSize())
	}
	return total, nil
}

// closeIndex flushes a file-backed index and releases its files, which
// Index.Close alone leaves open.
func closeIndex(ix *sgtree.Index) error {
	err := ix.Close()
	pool := ix.Tree().Pool()
	if w := pool.WAL(); w != nil {
		err = errors.Join(err, w.Close())
	}
	return errors.Join(err, pool.Pager().Close())
}

// The four library configurations, as the issue states them. Only
// approx-route has a sketch tier: the other systems must stay clear of it,
// or a change to that tier could move the workloads that exist to bypass it.

func setupMemFit(in *inputs, dir string) (*sut, error) {
	cfg := sgtree.Config{Universe: universe, Compress: true}
	ix, err := sgtree.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := ix.BulkLoad(in.items); err != nil {
		return nil, err
	}
	return &sut{t: libTarget{ix, context.Background()}, ix: ix, cfg: cfg, dir: dir, stop: ix.Close}, nil
}

func setupApproxRoute(in *inputs, dir string) (*sut, error) {
	cfg := sgtree.Config{Universe: universe, Sketch: &sgtree.SketchConfig{}}
	ix, err := sgtree.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := ix.BulkLoad(in.items); err != nil {
		return nil, err
	}
	// The first approx query builds the sketch index; that is set-up.
	if _, _, err := ix.ApproxKNN(in.queries[0], knnK); err != nil {
		return nil, err
	}
	return &sut{t: libTarget{ix, context.Background()}, ix: ix, cfg: cfg, dir: dir, stop: ix.Close}, nil
}

// newScratchApprox builds the index the approx lanes run on in a workload
// whose own system has no sketch tier: the first scratchSets sets of the
// workload's data in memory behind a default sketch tier, the first sketch
// build included. It is the same in every such workload.
func newScratchApprox(in *inputs) (*inputs, *sgtree.Index, error) {
	sub := in.prefix(scratchSets)
	ix, err := sgtree.New(sgtree.Config{Universe: universe, Sketch: &sgtree.SketchConfig{}})
	if err != nil {
		return nil, nil, err
	}
	if err := ix.BulkLoad(sub.items); err != nil {
		return nil, nil, err
	}
	if _, _, err := ix.ApproxKNN(sub.queries[0], knnK); err != nil {
		return nil, nil, err
	}
	return sub, ix, nil
}

func setupFileSpill(in *inputs, dir string) (*sut, error) {
	cfg := sgtree.Config{Universe: universe}
	path := filepath.Join(dir, "spill.sgt")
	ix, err := sgtree.NewOnFile(cfg, path)
	if err != nil {
		return nil, err
	}
	if err := ix.BulkLoad(in.items); err != nil {
		return nil, err
	}
	if err := closeIndex(ix); err != nil {
		return nil, err
	}
	if ix, err = sgtree.OpenFile(cfg, path); err != nil { // cold: both caches empty
		return nil, err
	}
	return &sut{t: libTarget{ix, context.Background()}, ix: ix, cfg: cfg, path: path, dir: dir,
		stop: func() error { return closeIndex(ix) }}, nil
}

func setupDurableChurn(in *inputs, dir string) (*sut, error) {
	cfg := sgtree.Config{Universe: universe, Durable: true}
	path := filepath.Join(dir, "churn.sgt")
	ix, err := sgtree.NewOnFile(cfg, path)
	if err != nil {
		return nil, err
	}
	if err := ix.BulkLoad(in.items); err != nil {
		return nil, err
	}
	if err := ix.Sync(); err != nil {
		return nil, err
	}
	return &sut{t: libTarget{ix, context.Background()}, ix: ix, cfg: cfg, path: path, dir: dir,
		stop: func() error { return closeIndex(ix) }}, nil
}

// collectionName is the one collection the service workload creates.
const collectionName = "bench"

// serveShards is the shard count of the service workload's collection.
const serveShards = 4

// node is one in-process sgserved behind a real TCP listener.
type node struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

func startNode(cfg server.Config) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	n := &node{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.http.Serve(ln) }()
	return n, nil
}

func (n *node) stop() error {
	err := n.http.Close()
	if serveErr := <-n.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return errors.Join(err, n.srv.Close())
}

// servePair is a primary and a follower that mirrors it.
type servePair struct {
	primary, follower *node
	client            *http.Client // the load generator's connections
	replClient        *http.Client // the follower's connections to the primary
}

func (p *servePair) stop() error {
	err := errors.Join(p.follower.stop(), p.primary.stop())
	p.client.CloseIdleConnections()
	p.replClient.CloseIdleConnections()
	return err
}

func (p *servePair) collectionURL(n *node) string {
	return n.url + "/collections/" + collectionName
}

// stats fetches a node's /stats document.
func (p *servePair) stats(n *node) (server.StatsReport, error) {
	var report server.StatsReport
	resp, err := p.client.Get(n.url + "/stats")
	if err != nil {
		return report, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return report, fmt.Errorf("GET /stats: HTTP %d", resp.StatusCode)
	}
	return report, json.NewDecoder(resp.Body).Decode(&report)
}

// waitCaughtUp blocks until the follower reports replication lag 0 with
// wantLen sets, i.e. has applied every commit the primary acknowledged.
func (p *servePair) waitCaughtUp(wantLen int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		report, err := p.stats(p.follower)
		if err != nil {
			return err
		}
		cs, ok := report.Collections[collectionName]
		if ok && cs.Len == wantLen && report.ReplicationLagTotal != nil && *report.ReplicationLagTotal == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not catch up to %d sets (has %d)", wantLen, cs.Len)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func setupServeSharded(in *inputs, dir string) (*sut, error) {
	newClient := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: 60 * time.Second}
	}
	pair := &servePair{client: newClient(), replClient: newClient()}
	var err error
	if pair.primary, err = startNode(server.Config{DataDir: filepath.Join(dir, "primary")}); err != nil {
		return nil, err
	}
	spec := server.CollectionSpec{Name: collectionName, Universe: universe, Shards: serveShards, Durable: true}
	if err := postJSON(pair.client, pair.primary.url+"/collections", spec, nil); err != nil {
		return nil, errors.Join(err, pair.primary.stop())
	}
	type bulkBody struct {
		Items []itemBody `json:"items"`
	}
	bulk := bulkBody{Items: make([]itemBody, len(in.items))}
	for i, it := range in.items {
		bulk.Items[i] = itemBody{ID: it.ID, Items: it.Items}
	}
	if err := postJSON(pair.client, pair.collectionURL(pair.primary)+"/bulkload", bulk, nil); err != nil {
		return nil, errors.Join(err, pair.primary.stop())
	}
	pair.follower, err = startNode(server.Config{DataDir: filepath.Join(dir, "follower"), Primary: pair.primary.url, Client: pair.replClient})
	if err != nil {
		return nil, errors.Join(err, pair.primary.stop())
	}
	if err := pair.waitCaughtUp(len(in.items)); err != nil {
		return nil, errors.Join(err, pair.stop())
	}
	t := httpTarget{client: pair.client, readURL: pair.collectionURL(pair.follower), writeURL: pair.collectionURL(pair.primary)}
	return &sut{t: t, pair: pair, dir: dir, stop: pair.stop}, nil
}
