package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"sgtree"
)

// target is the op vocabulary every workload drives: the public entry
// points of whichever module the workload enters the stack through. An
// Insert or Delete returns once the write is acknowledged as durable as
// the configuration makes it (Insert+Sync in the library, one POST on the
// service).
type target interface {
	KNN(q []int, k int) ([]sgtree.Match, sgtree.Stats, error)
	Range(q []int, eps float64) ([]sgtree.Match, sgtree.Stats, error)
	Contains(q []int) ([]uint32, sgtree.Stats, error)
	Approx(q []int, k int) ([]sgtree.Match, sgtree.Stats, error)
	Insert(id uint32, items []int) error
	Delete(id uint32, items []int) error
	// Undo takes out what a stream left behind. It is the benchmark's
	// housekeeping, not a measured op, so the library does it under one
	// commit.
	Undo(deletes []op) error
}

// libTarget enters through the sgtree facade.
type libTarget struct {
	ix  *sgtree.Index
	ctx context.Context
}

func (t libTarget) KNN(q []int, k int) ([]sgtree.Match, sgtree.Stats, error) {
	return t.ix.KNNContext(t.ctx, q, k)
}

func (t libTarget) Range(q []int, eps float64) ([]sgtree.Match, sgtree.Stats, error) {
	return t.ix.RangeSearchContext(t.ctx, q, eps)
}

func (t libTarget) Contains(q []int) ([]uint32, sgtree.Stats, error) {
	return t.ix.ContainingContext(t.ctx, q)
}

func (t libTarget) Approx(q []int, k int) ([]sgtree.Match, sgtree.Stats, error) {
	return t.ix.ApproxKNNContext(t.ctx, q, k)
}

func (t libTarget) Insert(id uint32, items []int) error {
	if err := t.ix.Insert(id, items); err != nil {
		return err
	}
	return t.ix.Sync()
}

func (t libTarget) Delete(id uint32, items []int) error {
	found, err := t.ix.Delete(id, items)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("delete of id %d: not found", id)
	}
	return t.ix.Sync()
}

func (t libTarget) Undo(deletes []op) error {
	if len(deletes) == 0 {
		return nil
	}
	for _, o := range deletes {
		if found, err := t.ix.Delete(o.id, o.items); err != nil || !found {
			return fmt.Errorf("undo of id %d: found=%v err=%v", o.id, found, err)
		}
	}
	return t.ix.Sync()
}

// httpTarget enters through sgserved's HTTP/JSON API. Reads go to readURL
// (the follower in the serve-sharded workload), writes to writeURL (the
// primary).
type httpTarget struct {
	client            *http.Client
	readURL, writeURL string // ".../collections/<name>"
}

type matchesBody struct {
	Matches []struct {
		ID       uint32  `json:"id"`
		Distance float64 `json:"distance"`
	} `json:"matches"`
	IDs   []uint32 `json:"ids"`
	Found *bool    `json:"found"`
	Stats struct {
		NodesAccessed int `json:"nodes_accessed"`
		DataCompared  int `json:"data_compared"`
		EntriesPruned int `json:"entries_pruned"`
	} `json:"stats"`
}

func (b *matchesBody) matches() []sgtree.Match {
	out := make([]sgtree.Match, len(b.Matches))
	for i, m := range b.Matches {
		out[i] = sgtree.Match{ID: m.ID, Distance: m.Distance}
	}
	return out
}

func (b *matchesBody) stats() sgtree.Stats {
	return sgtree.Stats{NodesAccessed: b.Stats.NodesAccessed, DataCompared: b.Stats.DataCompared, EntriesPruned: b.Stats.EntriesPruned}
}

// postJSON sends one request and decodes the 200 reply into out (which may
// be nil); any other status is an error carrying the body.
func postJSON(client *http.Client, url string, in, out any) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type queryBody struct {
	Items []int   `json:"items"`
	K     int     `json:"k,omitempty"`
	Eps   float64 `json:"eps,omitempty"`
}

func (t httpTarget) query(url string, req queryBody) (matchesBody, error) {
	var body matchesBody
	err := postJSON(t.client, url, req, &body)
	return body, err
}

func (t httpTarget) KNN(q []int, k int) ([]sgtree.Match, sgtree.Stats, error) {
	b, err := t.query(t.readURL+"/knn", queryBody{Items: q, K: k})
	return b.matches(), b.stats(), err
}

func (t httpTarget) Range(q []int, eps float64) ([]sgtree.Match, sgtree.Stats, error) {
	b, err := t.query(t.readURL+"/range", queryBody{Items: q, Eps: eps})
	return b.matches(), b.stats(), err
}

func (t httpTarget) Contains(q []int) ([]uint32, sgtree.Stats, error) {
	b, err := t.query(t.readURL+"/contains", queryBody{Items: q})
	return b.IDs, b.stats(), err
}

// Approx is not part of the service workload: its collection has no sketch
// tier, and the approx lanes it carries run on a library index.
func (t httpTarget) Approx([]int, int) ([]sgtree.Match, sgtree.Stats, error) {
	return nil, sgtree.Stats{}, sgtree.ErrNoSketch
}

type itemBody struct {
	ID    uint32 `json:"id"`
	Items []int  `json:"items"`
}

func (t httpTarget) Insert(id uint32, items []int) error {
	return postJSON(t.client, t.writeURL+"/insert", itemBody{ID: id, Items: items}, nil)
}

func (t httpTarget) Delete(id uint32, items []int) error {
	var body matchesBody
	if err := postJSON(t.client, t.writeURL+"/delete", itemBody{ID: id, Items: items}, &body); err != nil {
		return err
	}
	if body.Found == nil || !*body.Found {
		return fmt.Errorf("delete of id %d: not found", id)
	}
	return nil
}

func (t httpTarget) Undo(deletes []op) error {
	for _, o := range deletes {
		if err := t.Delete(o.id, o.items); err != nil {
			return err
		}
	}
	return nil
}
