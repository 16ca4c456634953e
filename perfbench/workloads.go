package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"

	"github.com/faqdb/faq/internal/server"
	"github.com/faqdb/faq/internal/wire"
)

// Workload sizes.  Every input is drawn from the run's seed.
const (
	adhocShapes = 1024 // larger than the daemon's 256-entry plan cache
	// Shapes are picked by a Zipf–Mandelbrot law, P(k) ∝ (k+adhocZipfQ)^-s:
	// the s=1.1 tail of a Zipf law with a flattened head, so that the few
	// hottest shapes, which differ from seed to seed, do not set the
	// workload's cost.
	adhocZipfS = 1.1
	adhocZipfQ = 10
	// adhocMaxIntermediate redraws shapes whose expression-order oracle
	// run materializes more rows than this, keeping oracle set-up short.
	adhocMaxIntermediate = 20000

	batchItems    = 8
	batchVersions = 16
	batchVertices = 4096
	batchEdges    = 8000

	scanVertices = 16384
	scanEdges    = 100000
	scanDataset  = "perfbench-graph"

	deltaVertices = 4096
	deltaEdges    = 20000
	deltaChange   = 32 // absent edges inserted, then deleted, per factor
)

// openLoopRate is each workload's open-loop arrival rate in requests per
// second: 30–50% of the closed-loop request rate measured on a 2-core
// reference machine, under half so that the machine's own speed swings do
// not push the queue toward saturation.  It is fixed here, never derived
// at run time, so every commit is measured at the same offered load.
var openLoopRate = map[string]float64{
	"adhoc-inline": 400,
	"fresh-batch":  9,
	"dataset-scan": 16,
	"delta-rw":     280,
}

// workloadNames lists the workloads in documentation order.
var workloadNames = []string{"adhoc-inline", "fresh-batch", "dataset-scan", "delta-rw"}

// workload is one traffic mix.  Request i of client g is fixed by the seed;
// send checks its answer against the oracle and returns the daemon's own
// elapsed_ms for it.
type workload interface {
	name() string
	// queriesPer is the number of queries one request answers.
	queriesPer() int
	// setup readies a fresh daemon for traffic: uploads and sessions.
	setup(ctx context.Context, c *server.Client) error
	send(ctx context.Context, c *server.Client, g, i int) (elapsedMS float64, err error)
	// replaySetup and replay drive the same requests in-process through
	// each layer's public functions (see replay.go).
	replaySetup(rp *replayer) error
	replay(rp *replayer, i int) error
}

// newWorkload generates the named workload's inputs and expected answers.
func newWorkload(name string, seed int64, clients int, o *oracle) (workload, error) {
	switch name {
	case "adhoc-inline":
		return newAdhoc(seed, clients, o)
	case "fresh-batch":
		return newFreshBatch(seed, clients, o)
	case "dataset-scan":
		return newDatasetScan(seed, clients, o)
	case "delta-rw":
		return newDeltaRW(seed, clients, o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// post sends a request body and returns the body of a 2xx response.
func post(ctx context.Context, c *server.Client, path, contentType, accept string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func decodeJSON(data []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(out)
}

// adhocWorkload is ad-hoc analytical traffic: a pool of seeded random FAQ
// shapes with inline data, picked by a Zipf law and sent as JSON.
type adhocWorkload struct {
	clients int
	specs   []shapeSpec
	bodies  [][]byte
	want    []answer
	seq     []int
}

func newAdhoc(seed int64, clients int, o *oracle) (*adhocWorkload, error) {
	w := &adhocWorkload{clients: clients}
	r := rngFor(seed, "adhoc-shapes")
	for len(w.specs) < adhocShapes {
		s := genShape(r)
		a, st, err := o.evalSpec(s.text)
		if err != nil {
			return nil, fmt.Errorf("adhoc shape %d: %w", len(w.specs), err)
		}
		if st.MaxIntermediate > adhocMaxIntermediate {
			continue
		}
		body, err := json.Marshal(server.QueryRequest{Spec: s.text})
		if err != nil {
			return nil, err
		}
		w.specs = append(w.specs, s)
		w.bodies = append(w.bodies, body)
		w.want = append(w.want, a)
	}
	z := rand.NewZipf(rngFor(seed, "adhoc-zipf"), adhocZipfS, adhocZipfQ, adhocShapes-1)
	w.seq = make([]int, 1<<16)
	for i := range w.seq {
		w.seq[i] = int(z.Uint64())
	}
	return w, nil
}

func (w *adhocWorkload) name() string                                      { return "adhoc-inline" }
func (w *adhocWorkload) queriesPer() int                                   { return 1 }
func (w *adhocWorkload) setup(ctx context.Context, c *server.Client) error { return nil }
func (w *adhocWorkload) shapeOf(g, i int) int                              { return w.seq[(i*w.clients+g)%len(w.seq)] }

func (w *adhocWorkload) send(ctx context.Context, c *server.Client, g, i int) (float64, error) {
	k := w.shapeOf(g, i)
	data, err := post(ctx, c, "/v1/query", "application/json", "", w.bodies[k])
	if err != nil {
		return 0, err
	}
	var resp server.QueryResponse
	if err := decodeJSON(data, &resp); err != nil {
		return 0, err
	}
	got, err := answerOfResponse(w.specs[k].domain, resp.Value, resp.Output)
	if err != nil {
		return 0, err
	}
	if err := w.want[k].check(got); err != nil {
		return 0, fmt.Errorf("shape %d: %w", k, err)
	}
	return resp.ElapsedMS, nil
}

// freshBatchWorkload is bulk refresh traffic: one scalar triangle spec sent
// as binary batch envelopes whose items each carry a fresh edge set drawn
// from pre-generated versions, answered as streamed result records.
type freshBatchWorkload struct {
	clients int
	header  []byte   // envelope start: magic, version, request JSON, item count
	items   [][]byte // per version: item header and its three factor frames
	want    []answer
	pick    []int
	bufs    [][]byte // per-client body buffers
}

func newFreshBatch(seed int64, clients int, o *oracle) (*freshBatchWorkload, error) {
	w := &freshBatchWorkload{clients: clients}
	hdr, err := json.Marshal(server.BatchRequest{Spec: triangleSpec(batchVertices, false, [3][]int32{}, "")})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := wire.NewEncoder(&b).WriteBatchHeader(hdr, batchItems); err != nil {
		return nil, err
	}
	w.header = b.Bytes()
	r := rngFor(seed, "fresh-batch-versions")
	for v := 0; v < batchVersions; v++ {
		var data [3][]int32
		var item bytes.Buffer
		enc := wire.NewEncoder(&item)
		if err := enc.WriteBatchItemHeader(3); err != nil {
			return nil, err
		}
		for f := range data {
			data[f] = genEdges(r, batchVertices, batchEdges)
			fr := &wire.Frame{Domain: wire.DomainFloat, Arity: 2, Rows: data[f], Floats: ones(len(data[f]) / 2)}
			if err := enc.Encode(fr); err != nil {
				return nil, err
			}
		}
		a, _, err := o.evalSpec(triangleSpec(batchVertices, false, data, ""))
		if err != nil {
			return nil, fmt.Errorf("fresh-batch version %d oracle: %w", v, err)
		}
		w.items = append(w.items, item.Bytes())
		w.want = append(w.want, a)
	}
	w.pick = make([]int, 1<<12)
	for i := range w.pick {
		w.pick[i] = r.Intn(batchVersions)
	}
	w.bufs = make([][]byte, clients)
	return w, nil
}

func (w *freshBatchWorkload) name() string                                      { return "fresh-batch" }
func (w *freshBatchWorkload) queriesPer() int                                   { return batchItems }
func (w *freshBatchWorkload) setup(ctx context.Context, c *server.Client) error { return nil }

// version is the edge-set version carried by item k of request i of client g.
func (w *freshBatchWorkload) version(g, i, k int) int {
	return w.pick[((i*w.clients+g)*batchItems+k)%len(w.pick)]
}

// body assembles the request body into buf.
func (w *freshBatchWorkload) body(buf []byte, g, i int) []byte {
	buf = append(buf[:0], w.header...)
	for k := 0; k < batchItems; k++ {
		buf = append(buf, w.items[w.version(g, i, k)]...)
	}
	return buf
}

func (w *freshBatchWorkload) send(ctx context.Context, c *server.Client, g, i int) (float64, error) {
	w.bufs[g] = w.body(w.bufs[g], g, i)
	resp, err := c.QueryBatchStream(ctx, wire.BatchContentType, w.bufs[g], nil)
	if err != nil {
		return 0, err
	}
	if err := w.checkBatch(resp, g, i); err != nil {
		return 0, err
	}
	return resp.ElapsedMS, nil
}

func (w *freshBatchWorkload) checkBatch(resp *server.BatchResponse, g, i int) error {
	if resp.Status != server.BatchStatusOK || resp.Completed != batchItems || len(resp.Items) != batchItems {
		return fmt.Errorf("batch status %q completed %d items %d, want ok/%d/%d",
			resp.Status, resp.Completed, len(resp.Items), batchItems, batchItems)
	}
	for k, item := range resp.Items {
		if item.Error != "" {
			return fmt.Errorf("batch item %d: %s", k, item.Error)
		}
		got, err := answerOfResponse("float", item.Value, item.Output)
		if err != nil {
			return err
		}
		v := w.version(g, i, k)
		if err := w.want[v].check(got); err != nil {
			return fmt.Errorf("batch item %d (version %d): %w", k, v, err)
		}
	}
	return nil
}

// datasetScanWorkload is read-mostly traffic over one resident skewed
// graph: use-specs alternating a scalar triangle count with a per-vertex
// listing, both answered in the binary response encoding.
type datasetScanWorkload struct {
	clients int
	edges   []int32
	bodies  [2][]byte
	specs   [2]string
	want    [2]answer
}

func newDatasetScan(seed int64, clients int, o *oracle) (*datasetScanWorkload, error) {
	w := &datasetScanWorkload{clients: clients}
	w.edges = genEdges(rngFor(seed, "dataset-scan-graph"), scanVertices, scanEdges)
	for k, free := range []bool{false, true} {
		w.specs[k] = triangleSpec(scanVertices, free, [3][]int32{}, scanDataset)
		body, err := json.Marshal(server.QueryRequest{Spec: w.specs[k]})
		if err != nil {
			return nil, err
		}
		w.bodies[k] = body
		e := w.edges
		if w.want[k], _, err = o.evalSpec(triangleSpec(scanVertices, free, [3][]int32{e, e, e}, "")); err != nil {
			return nil, fmt.Errorf("dataset-scan oracle: %w", err)
		}
	}
	return w, nil
}

func (w *datasetScanWorkload) name() string    { return "dataset-scan" }
func (w *datasetScanWorkload) queriesPer() int { return 1 }

// frames returns the upload: the edge relation once per triangle factor.
func (w *datasetScanWorkload) frames() []*wire.Frame {
	fs := make([]*wire.Frame, 3)
	for i := range fs {
		fs[i] = &wire.Frame{Domain: wire.DomainFloat, Arity: 2,
			Rows: append([]int32(nil), w.edges...), Floats: ones(len(w.edges) / 2)}
	}
	return fs
}

func (w *datasetScanWorkload) setup(ctx context.Context, c *server.Client) error {
	_, err := c.PutDataset(ctx, scanDataset, w.frames())
	return err
}

func (w *datasetScanWorkload) send(ctx context.Context, c *server.Client, g, i int) (float64, error) {
	k := (i + g) % 2
	data, err := post(ctx, c, "/v1/query", "application/json", wire.ContentType, w.bodies[k])
	if err != nil {
		return 0, err
	}
	resp, err := server.DecodeBinaryQueryResponse(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	got, err := answerOfResponse("float", resp.Value, resp.Output)
	if err != nil {
		return 0, err
	}
	if err := w.want[k].check(got); err != nil {
		return 0, fmt.Errorf("query %d: %w", k, err)
	}
	return resp.ElapsedMS, nil
}

// deltaRWWorkload is writes beside reads: each client owns a delta session
// over an x-free triangle listing and cycles insert/delete frames of
// absent edges that return the state to its baseline every four steps.
type deltaRWWorkload struct {
	clients   int
	seedSpec  string // full spec with inline data: seeds a session
	shapeSpec string // the same shape without data: names it afterwards
	frames    [4][]*wire.DeltaFrame
	want      [4]answer
	base      answer
	streams   [][4][]byte // per client, per step: encoded delta stream
}

func newDeltaRW(seed int64, clients int, o *oracle) (*deltaRWWorkload, error) {
	r := rngFor(seed, "delta-rw-graph")
	e := genEdges(r, deltaVertices, deltaEdges)
	present := edgeSet(e)
	w := &deltaRWWorkload{
		clients:   clients,
		seedSpec:  triangleSpec(deltaVertices, true, [3][]int32{e, e, e}, ""),
		shapeSpec: triangleSpec(deltaVertices, true, [3][]int32{}, ""),
	}
	var err error
	if w.base, _, err = o.evalSpec(w.seedSpec); err != nil {
		return nil, fmt.Errorf("delta-rw oracle: %w", err)
	}
	add := [2][]int32{absentEdges(r, deltaVertices, deltaChange, present), absentEdges(r, deltaVertices, deltaChange, present)}
	cur := [3][]int32{e, e, e}
	for step := 0; step < 4; step++ {
		f := step % 2
		fr := &wire.DeltaFrame{Domain: wire.DomainFloat, Factor: f, Arity: 2, Rows: add[f]}
		if step < 2 {
			fr.Op = wire.DeltaOpInsert
			fr.Floats = ones(len(add[f]) / 2)
			cur[f] = append(append([]int32(nil), e...), add[f]...)
		} else {
			fr.Op = wire.DeltaOpDelete
			cur[f] = e
		}
		w.frames[step] = []*wire.DeltaFrame{fr}
		if w.want[step], _, err = o.evalSpec(triangleSpec(deltaVertices, true, cur, "")); err != nil {
			return nil, fmt.Errorf("delta-rw step %d oracle: %w", step, err)
		}
	}
	for g := 0; g < clients; g++ {
		var ss [4][]byte
		for step := range ss {
			hdr := &server.DeltaRequest{Spec: w.shapeSpec, Session: sessionName(g)}
			if ss[step], err = server.EncodeDeltaStream(hdr, w.frames[step]); err != nil {
				return nil, err
			}
		}
		w.streams = append(w.streams, ss)
	}
	return w, nil
}

func sessionName(g int) string { return fmt.Sprintf("perfbench-%d", g) }

func (w *deltaRWWorkload) name() string    { return "delta-rw" }
func (w *deltaRWWorkload) queriesPer() int { return 1 }

func (w *deltaRWWorkload) setup(ctx context.Context, c *server.Client) error {
	for g := 0; g < w.clients; g++ {
		resp, err := c.Delta(ctx, &server.DeltaRequest{Spec: w.seedSpec, Session: sessionName(g)})
		if err != nil {
			return fmt.Errorf("seeding session %d: %w", g, err)
		}
		if err := w.checkDelta(resp, w.base); err != nil {
			return fmt.Errorf("seeding session %d: %w", g, err)
		}
	}
	return nil
}

func (w *deltaRWWorkload) checkDelta(resp *server.DeltaResponse, want answer) error {
	got, err := answerOfResponse(resp.Domain, resp.Value, resp.Output)
	if err != nil {
		return err
	}
	return want.check(got)
}

func (w *deltaRWWorkload) send(ctx context.Context, c *server.Client, g, i int) (float64, error) {
	step := i % 4
	resp, err := c.DeltaStream(ctx, w.streams[g][step])
	if err != nil {
		return 0, err
	}
	if err := w.checkDelta(resp, w.want[step]); err != nil {
		return 0, fmt.Errorf("session %d step %d: %w", g, step, err)
	}
	return resp.ElapsedMS, nil
}
