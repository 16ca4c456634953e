package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/factor"
	"github.com/faqdb/faq/internal/semiring"
	"github.com/faqdb/faq/internal/server"
	"github.com/faqdb/faq/internal/sortx"
	"github.com/faqdb/faq/internal/spec"
	"github.com/faqdb/faq/internal/store"
	"github.com/faqdb/faq/internal/wire"
)

// The traced replay drives a workload's requests in the benchmark process
// through the public functions of each layer, in the order the daemon
// calls them, and records a span around every call.  The spans live in
// the benchmark's own files: the program carries no spans for this.  Each
// replayed request is then also served whole by an in-process
// server.Handler, so the server's own share of a request is its wall time
// minus the replayed layer calls.

// span is one timed call.  Parent is the index of the enclosing span, -1
// for a root.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
	cur   int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), cur: -1} }

func (l *spanLog) open(name string) int {
	l.spans = append(l.spans, span{Name: name, Parent: l.cur, Start: int64(time.Since(l.t0))})
	l.cur = len(l.spans) - 1
	return l.cur
}

func (l *spanLog) close(i int) {
	l.spans[i].End = int64(time.Since(l.t0))
	l.cur = l.spans[i].Parent
}

// selfTime sums each span name's self time (its duration minus the part
// its children cover) and counts its spans.
func (l *spanLog) selfTime() (ms map[string]float64, count map[string]int) {
	ms, count = map[string]float64{}, map[string]int{}
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range l.spans {
		ms[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
		count[s.Name]++
	}
	return ms, count
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// layerCounts are the work counters the replay reads at layer boundaries.
type layerCounts struct {
	requests, queries                  int
	specBytes, bytesIn, bytesOut, rows int64
	radix, comparison                  int64
	probes, emitted, parallelScans     int64
	poolWaitNS                         int64
	prepares                           int
	widthSum                           float64
	intermediate, maxIntermediate      int64
	batchItemNS                        int64
	batchItems                         int
	bytesMapped                        int64
	layerNS, serveNS                   int64
	trie                               core.EngineStats // engine counters at the end minus the start
}

// replayer is one in-process replay: its own engine (default plan cache and
// pool, like the daemon's), an optional span log and in-process server,
// and a scratch directory for the dataset store.
type replayer struct {
	ctx     context.Context
	spans   *spanLog // nil: spans off
	eng     *core.Engine[float64]
	engInt  *core.Engine[int64]
	engBool *core.Engine[bool]
	srv     *server.Server // nil: requests are not served in-process
	dir     string
	c       layerCounts
	state   map[string]any // per-workload replay state
	buf     []byte
	st      *store.Store
	ds      *store.Dataset

	radix0, comparison0 int64 // sort counters when the current request began
}

func newReplayer(ctx context.Context, workdir string, traced bool) (*replayer, error) {
	dir, err := os.MkdirTemp(workdir, "replay-")
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine[float64](core.EngineOptions{})
	rp := &replayer{ctx: ctx, eng: eng, engInt: core.Retype[int64](eng), engBool: core.Retype[bool](eng),
		dir: dir, state: map[string]any{}}
	if traced {
		rp.spans = newSpanLog()
		if rp.srv, err = server.New(server.Config{DataDir: filepath.Join(dir, "server")}); err != nil {
			rp.close()
			return nil, err
		}
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.srv != nil {
		rp.srv.Close()
	}
	if rp.ds != nil {
		rp.ds.Release()
	}
	if rp.st != nil {
		rp.st.Close()
	}
	rp.eng.Close()
	os.RemoveAll(rp.dir)
}

// layer runs one layer call inside a span.
func (rp *replayer) layer(name string, fn func() error) error {
	if rp.spans == nil {
		return fn()
	}
	i := rp.spans.open(name)
	err := fn()
	rp.spans.close(i)
	return err
}

// run replays requests 0, 1, … of the workload until d has passed (n < 0)
// or exactly n requests, and returns how many it replayed.
func (rp *replayer) run(wl workload, n int, d time.Duration) (int, error) {
	if err := wl.replaySetup(rp); err != nil {
		return 0, fmt.Errorf("replay setup: %w", err)
	}
	before := rp.eng.StatsSnapshot()
	stop := time.Now().Add(d)
	i := 0
	for ; n < 0 && time.Now().Before(stop) || i < n; i++ {
		if err := rp.ctx.Err(); err != nil {
			return i, err
		}
		root := -1
		if rp.spans != nil {
			root = rp.spans.open("request")
		}
		rp.radix0, rp.comparison0 = sortx.RadixSorts(), sortx.ComparisonSorts()
		if err := wl.replay(rp, i); err != nil {
			return i, fmt.Errorf("replay request %d: %w", i, err)
		}
		rp.c.requests++
		if root >= 0 {
			rp.spans.close(root)
		}
	}
	after := rp.eng.StatsSnapshot()
	rp.c.trie = core.EngineStats{
		TrieCacheHits:      after.TrieCacheHits - before.TrieCacheHits,
		TrieCacheMisses:    after.TrieCacheMisses - before.TrieCacheMisses,
		TrieCacheEvictions: after.TrieCacheEvictions - before.TrieCacheEvictions,
		DeltasApplied:      after.DeltasApplied - before.DeltasApplied,
		DeltaRingRuns:      after.DeltaRingRuns - before.DeltaRingRuns,
	}
	return i, nil
}

// serve hands the request to the in-process server, after the replayed
// layer calls of the same request, and checks for a 2xx.
func (rp *replayer) serve(method, path, contentType, accept string, body []byte) error {
	if rp.srv == nil {
		return nil
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	rp.layer("server.serve", func() error { rp.srv.Handler().ServeHTTP(rec, req); return nil })
	rp.c.serveNS += int64(time.Since(t0))
	if rec.Code/100 != 2 {
		return fmt.Errorf("in-process %s %s: HTTP %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// layersDone ends the layer part of a request that began at start; the
// in-process serve that follows is not counted in the layer counters.
func (rp *replayer) layersDone(start time.Time) {
	rp.c.layerNS += int64(time.Since(start))
	rp.c.radix += sortx.RadixSorts() - rp.radix0
	rp.c.comparison += sortx.ComparisonSorts() - rp.comparison0
}

// noteRun accumulates one engine run's counters.
func (rp *replayer) noteRun(st *core.Stats) {
	rp.c.probes += st.Join.Probes
	rp.c.emitted += st.Join.Emitted
	rp.c.parallelScans += st.Join.ParallelScans
	rp.c.poolWaitNS += st.Join.PoolWaitNS
	rp.c.intermediate += st.IntermediateRows
	rp.c.maxIntermediate = max(rp.c.maxIntermediate, st.MaxIntermediate)
}

// prepare plans q through the engine's plan cache inside a span named for
// the outcome: core.plan on a miss, core.prepare_hit on a hit.
func prepare[V any](rp *replayer, eng *core.Engine[V], q *core.Query[V]) (*core.PreparedQuery[V], error) {
	misses := eng.StatsSnapshot().PlanCacheMisses
	var i int
	if rp.spans != nil {
		i = rp.spans.open("core.prepare")
	}
	prep, err := eng.PrepareCtx(rp.ctx, q, core.DefaultOptions())
	if rp.spans != nil {
		rp.spans.close(i)
		rp.spans.spans[i].Name = "core.prepare_hit"
		if eng.StatsSnapshot().PlanCacheMisses != misses {
			rp.spans.spans[i].Name = "core.plan"
		}
	}
	if err != nil {
		return nil, err
	}
	rp.c.prepares++
	rp.c.widthSum += prep.Plan().Width
	return prep, nil
}

// replayQuery builds, prepares and runs one parsed spec.
func replayQuery[V any](rp *replayer, eng *core.Engine[V], doc *spec.Document,
	build func(*spec.Document) (*core.Query[V], [][]int, error), bits func(V) uint64) (answer, error) {
	var q *core.Query[V]
	if err := rp.layer("spec.build", func() (err error) { q, _, err = build(doc); return err }); err != nil {
		return answer{}, err
	}
	prep, err := prepare(rp, eng, q)
	if err != nil {
		return answer{}, err
	}
	var res *core.Result[V]
	if err := rp.layer("core.run", func() (err error) { res, err = prep.Run(rp.ctx); return err }); err != nil {
		return answer{}, err
	}
	rp.noteRun(&res.Stats)
	return answerOf(res, bits), nil
}

func (w *adhocWorkload) replaySetup(rp *replayer) error { return nil }

func (w *adhocWorkload) replay(rp *replayer, i int) error {
	t0 := time.Now()
	k := w.shapeOf(0, i)
	text := w.specs[k].text
	rp.c.queries++
	rp.c.specBytes += int64(len(text))
	rp.c.bytesIn += int64(len(w.bodies[k]))
	var doc *spec.Document
	if err := rp.layer("spec.parse", func() (err error) {
		doc, err = spec.ParseDocument(strings.NewReader(text))
		return err
	}); err != nil {
		return err
	}
	var got answer
	var err error
	switch doc.Domain {
	case spec.DomainInt:
		got, err = replayQuery(rp, rp.engInt, doc, buildInt, intBits)
	case spec.DomainBool:
		got, err = replayQuery(rp, rp.engBool, doc, buildBool, boolBits)
	case spec.DomainTropical:
		got, err = replayQuery(rp, rp.eng, doc, buildTropical, floatBits)
	default:
		got, err = replayQuery(rp, rp.eng, doc, buildFloat, floatBits)
	}
	if err != nil {
		return err
	}
	if err := w.want[k].check(got); err != nil {
		return fmt.Errorf("shape %d: %w", k, err)
	}
	rp.layersDone(t0)
	return rp.serve(http.MethodPost, "/v1/query", "application/json", "", w.bodies[k])
}

func (w *freshBatchWorkload) replaySetup(rp *replayer) error { return nil }

func (w *freshBatchWorkload) replay(rp *replayer, i int) error {
	t0 := time.Now()
	rp.buf = w.body(rp.buf, 0, i)
	body := rp.buf
	rp.c.queries += batchItems
	rp.c.bytesIn += int64(len(body))
	var hdr []byte
	var groups [][]*wire.Frame
	if err := rp.layer("wire.decode", func() error {
		dec := wire.NewDecoder(bytes.NewReader(body))
		h, n, err := dec.ReadBatchHeader(1 << 20)
		if err != nil {
			return err
		}
		hdr = h
		for k := 0; k < n; k++ {
			nf, err := dec.ReadBatchItemHeader()
			if err != nil {
				return err
			}
			var frames []*wire.Frame
			for f := 0; f < nf; f++ {
				fr, err := dec.Decode()
				if err != nil {
					return err
				}
				frames = append(frames, fr)
			}
			groups = append(groups, frames)
		}
		return nil
	}); err != nil {
		return err
	}
	var req server.BatchRequest
	if err := json.Unmarshal(hdr, &req); err != nil {
		return err
	}
	rp.c.specBytes += int64(len(req.Spec))
	var doc *spec.Document
	if err := rp.layer("spec.parse", func() (err error) {
		doc, err = spec.ParseDocument(strings.NewReader(req.Spec))
		return err
	}); err != nil {
		return err
	}
	var q *core.Query[float64]
	if err := rp.layer("spec.build", func() (err error) { q, _, err = doc.BuildFloat(); return err }); err != nil {
		return err
	}
	sets := make([][]*factor.Factor[float64], len(groups))
	if err := rp.layer("factor.build", func() error {
		for k, frames := range groups {
			for f, fr := range frames {
				ff, err := factor.NewRows(q.D, q.Factors[f].Vars, fr.Rows, fr.Floats, nil)
				if err != nil {
					return err
				}
				rp.c.rows += int64(ff.Size())
				sets[k] = append(sets[k], ff)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	prep, err := prepare(rp, rp.eng, q)
	if err != nil {
		return err
	}
	results := make([]*core.Result[float64], len(sets))
	var runErr error
	parallel := min(runtime.GOMAXPROCS(0), len(sets))
	if err := rp.layer("core.run", func() error {
		return prep.RunBatch(rp.ctx, sets, parallel, func(k int, res *core.Result[float64], el time.Duration, err error) {
			if err != nil && runErr == nil {
				runErr = err
			}
			results[k] = res
			rp.c.batchItemNS += int64(el)
			rp.c.batchItems++
		})
	}); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	var out bytes.Buffer
	if err := rp.layer("wire.encode", func() error {
		enc := wire.NewEncoder(&out)
		h, err := json.Marshal(&server.BatchStreamHeader{Domain: spec.DomainFloat, Items: len(sets)})
		if err != nil {
			return err
		}
		if err := enc.WriteResultHeader(h); err != nil {
			return err
		}
		for k, res := range results {
			item, err := json.Marshal(&server.BatchItemResult{Index: k, Value: res.Scalar()})
			if err != nil {
				return err
			}
			if err := enc.EncodeResult(&wire.ResultFrame{Kind: wire.ResultItem, Index: k, Header: item}); err != nil {
				return err
			}
		}
		return enc.EncodeResult(&wire.ResultFrame{Kind: wire.ResultEnd, Index: len(sets), Header: []byte("{}")})
	}); err != nil {
		return err
	}
	rp.c.bytesOut += int64(out.Len())
	for k, res := range results {
		rp.noteRun(&res.Stats)
		v := w.version(0, i, k)
		if err := w.want[v].check(answerOf(res, floatBits)); err != nil {
			return fmt.Errorf("batch item %d (version %d): %w", k, v, err)
		}
	}
	rp.layersDone(t0)
	return rp.serve(http.MethodPost, "/v1/batch", wire.BatchContentType, wire.ResultContentType, body)
}

// datasetReplay is the per-replayer state of dataset-scan: the resident
// prepared queries, built on first use as the daemon's registry does.
type datasetReplay struct {
	prep [2]*core.PreparedQuery[float64]
}

func (w *datasetScanWorkload) replaySetup(rp *replayer) error {
	st, err := store.OpenDir(filepath.Join(rp.dir, "store"))
	if err != nil {
		return err
	}
	rp.st = st
	// Three uploads and opens, so the per-call store times are means.
	for r := 0; r < 3; r++ {
		frames := w.frames()
		if err := rp.layer("store.put", func() error { _, err := st.Put(scanDataset, frames); return err }); err != nil {
			return err
		}
	}
	if rp.ds, err = st.Get(scanDataset); err != nil {
		return err
	}
	for r := 0; r < 3; r++ {
		if err := rp.layer("store.open", func() error {
			ds, err := store.Open(rp.ds.Path())
			if err != nil {
				return err
			}
			return ds.Release()
		}); err != nil {
			return err
		}
	}
	rp.c.bytesMapped = st.BytesMapped()
	rp.state["dataset"] = &datasetReplay{}
	if rp.srv == nil {
		return nil
	}
	var body bytes.Buffer
	enc := wire.NewEncoder(&body)
	frames := w.frames()
	if err := enc.WriteStreamHeader(nil, len(frames)); err != nil {
		return err
	}
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			return err
		}
	}
	return rp.serve(http.MethodPut, "/v1/datasets/"+scanDataset, wire.ContentType, "", body.Bytes())
}

// resolver serves @<i> references from the replay's store, zero-copy as
// the daemon does.  The triangle blocks declare their variables sorted.
func (rp *replayer) resolver(d *semiring.Domain[float64], ref string, declVars []int) (*factor.Factor[float64], error) {
	idx, err := strconv.Atoi(ref)
	if err != nil || idx < 0 || idx >= rp.ds.NumFactors() {
		return nil, fmt.Errorf("no factor @%s", ref)
	}
	return factor.NewView(d, declVars, rp.ds.Rows(idx), rp.ds.Floats(idx))
}

func (w *datasetScanWorkload) replay(rp *replayer, i int) error {
	t0 := time.Now()
	k := i % 2
	st := rp.state["dataset"].(*datasetReplay)
	rp.c.queries++
	rp.c.specBytes += int64(len(w.specs[k]))
	rp.c.bytesIn += int64(len(w.bodies[k]))
	var doc *spec.Document
	if err := rp.layer("spec.parse", func() (err error) {
		doc, err = spec.ParseDocument(strings.NewReader(w.specs[k]))
		return err
	}); err != nil {
		return err
	}
	if st.prep[k] == nil {
		var q *core.Query[float64]
		if err := rp.layer("spec.build", func() (err error) { q, _, err = doc.BuildFloat(rp.resolver); return err }); err != nil {
			return err
		}
		prep, err := prepare(rp, rp.eng, q)
		if err != nil {
			return err
		}
		st.prep[k] = prep
	}
	var res *core.Result[float64]
	if err := rp.layer("core.run", func() (err error) { res, err = st.prep[k].Run(rp.ctx); return err }); err != nil {
		return err
	}
	rp.noteRun(&res.Stats)
	var out bytes.Buffer
	if err := rp.layer("wire.encode", func() error {
		resp := server.QueryResponse{Domain: spec.DomainFloat}
		var frame *wire.Frame
		if len(res.FreeVars) == 0 {
			resp.Value = res.Scalar()
		} else {
			resp.Output = &server.OutputData{Vars: []string{"x"}}
			frame = &wire.Frame{Domain: wire.DomainFloat, Arity: res.Output.Arity(),
				Rows: res.Output.Rows(), Floats: res.Output.Values}
		}
		h, err := json.Marshal(&resp)
		if err != nil {
			return err
		}
		enc := wire.NewEncoder(&out)
		if frame == nil {
			return enc.WriteStreamHeader(h, 0)
		}
		if err := enc.WriteStreamHeader(h, 1); err != nil {
			return err
		}
		return enc.Encode(frame)
	}); err != nil {
		return err
	}
	rp.c.bytesOut += int64(out.Len())
	if err := w.want[k].check(answerOf(res, floatBits)); err != nil {
		return fmt.Errorf("query %d: %w", k, err)
	}
	rp.layersDone(t0)
	return rp.serve(http.MethodPost, "/v1/query", "application/json", wire.ContentType, w.bodies[k])
}

func (w *deltaRWWorkload) replaySetup(rp *replayer) error {
	doc, err := spec.ParseDocument(strings.NewReader(w.seedSpec))
	if err != nil {
		return err
	}
	q, _, err := doc.BuildFloat()
	if err != nil {
		return err
	}
	prep, err := rp.eng.PrepareCtx(rp.ctx, q, core.DefaultOptions())
	if err != nil {
		return err
	}
	res, err := prep.ApplyDeltas(rp.ctx, nil)
	if err != nil {
		return err
	}
	if err := w.base.check(answerOf(res, floatBits)); err != nil {
		return fmt.Errorf("seed: %w", err)
	}
	rp.state["session"] = prep
	if rp.srv == nil {
		return nil
	}
	body, err := json.Marshal(&server.DeltaRequest{Spec: w.seedSpec, Session: sessionName(0)})
	if err != nil {
		return err
	}
	return rp.serve(http.MethodPost, "/v1/delta", "application/json", "", body)
}

func (w *deltaRWWorkload) replay(rp *replayer, i int) error {
	t0 := time.Now()
	step := i % 4
	body := w.streams[0][step]
	prep := rp.state["session"].(*core.PreparedQuery[float64])
	rp.c.queries++
	rp.c.bytesIn += int64(len(body))
	var hdr []byte
	var frames []*wire.DeltaFrame
	if err := rp.layer("wire.decode", func() error {
		dec := wire.NewDecoder(bytes.NewReader(body))
		h, n, err := dec.ReadStreamHeader(1 << 20)
		if err != nil {
			return err
		}
		hdr = h
		for f := 0; f < n; f++ {
			fr, err := dec.DecodeDelta()
			if err != nil {
				return err
			}
			frames = append(frames, fr)
		}
		return nil
	}); err != nil {
		return err
	}
	var req server.DeltaRequest
	if err := json.Unmarshal(hdr, &req); err != nil {
		return err
	}
	rp.c.specBytes += int64(len(req.Spec))
	if err := rp.layer("spec.parse", func() error {
		_, err := spec.ParseDocument(strings.NewReader(req.Spec))
		return err
	}); err != nil {
		return err
	}
	var deltas []core.Delta[float64]
	if err := rp.layer("factor.build", func() error {
		for _, fr := range frames {
			op := factor.DeltaInsert
			if fr.Op == wire.DeltaOpDelete {
				op = factor.DeltaDelete
			}
			deltas = append(deltas, core.Delta[float64]{Factor: fr.Factor, Op: op, Rows: fr.Rows, Values: fr.Floats})
			rp.c.rows += int64(fr.NumRows())
		}
		return nil
	}); err != nil {
		return err
	}
	var res *core.Result[float64]
	if err := rp.layer("core.delta", func() (err error) { res, err = prep.ApplyDeltas(rp.ctx, deltas); return err }); err != nil {
		return err
	}
	rp.noteRun(&res.Stats)
	if err := w.want[step].check(answerOf(res, floatBits)); err != nil {
		return fmt.Errorf("step %d: %w", step, err)
	}
	rp.layersDone(t0)
	return rp.serve(http.MethodPost, "/v1/delta", wire.DeltaContentType, "", body)
}
