package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/faqdb/faq/internal/server"
)

// newTestServer serves a fresh in-process faqd.
func newTestServer(t *testing.T) *server.Client {
	t.Helper()
	srv, err := server.New(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return &server.Client{BaseURL: hs.URL, HTTPClient: hs.Client()}
}

func mustWorkload(t *testing.T, name string, seed int64) workload {
	t.Helper()
	o := newOracle()
	defer o.close()
	wl, err := newWorkload(name, seed, 2, o)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// corrupt changes an expected answer so that no daemon answer matches it.
func corrupt(a *answer) {
	if len(a.values) == 0 {
		a.tuples = append(a.tuples, []int{0})
		a.values = append(a.values, 1)
		return
	}
	a.values[0]++
}

// TestOracleCatchesCorruptedExpected sends real requests to an in-process
// daemon: they pass against the oracle's answers and fail as wrong answers
// once the expected value is corrupted.
func TestOracleCatchesCorruptedExpected(t *testing.T) {
	ctx := context.Background()
	c := newTestServer(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			wl := mustWorkload(t, name, 7)
			if err := wl.setup(ctx, c); err != nil {
				t.Fatal(err)
			}
			if _, err := wl.send(ctx, c, 0, 0); err != nil {
				t.Fatalf("untouched request: %v", err)
			}
			switch w := wl.(type) {
			case *adhocWorkload:
				// One scalar and one listing shape.
				for _, listing := range []bool{false, true} {
					i := 1
					for w.want[w.shapeOf(0, i)].listing != listing {
						i++
					}
					corrupt(&w.want[w.shapeOf(0, i)])
					expectWrong(t, wl, c, 0, i)
				}
				return
			case *freshBatchWorkload:
				corrupt(&w.want[w.version(0, 1, 3)])
			case *datasetScanWorkload:
				// Request 1 of client 0 is the listing; 2 is the scalar.
				corrupt(&w.want[1])
				expectWrong(t, wl, c, 0, 1)
				corrupt(&w.want[0])
				expectWrong(t, wl, c, 0, 2)
				return
			case *deltaRWWorkload:
				corrupt(&w.want[1])
			}
			expectWrong(t, wl, c, 0, 1)
		})
	}
}

func expectWrong(t *testing.T, wl workload, c *server.Client, g, i int) {
	t.Helper()
	_, err := wl.send(context.Background(), c, g, i)
	var wrong *errWrong
	if !errors.As(err, &wrong) {
		t.Fatalf("request %d of client %d with a corrupted expected answer: got %v, want a wrong-answer error", i, g, err)
	}
}

// requestBodies renders the first request bodies a workload sends.
func requestBodies(wl workload) [][]byte {
	var out [][]byte
	switch w := wl.(type) {
	case *adhocWorkload:
		for i := 0; i < 64; i++ {
			out = append(out, w.bodies[w.shapeOf(i%2, i/2)])
		}
	case *freshBatchWorkload:
		for i := 0; i < 8; i++ {
			out = append(out, w.body(nil, i%2, i/2))
		}
	case *datasetScanWorkload:
		out = append(out, w.bodies[0], w.bodies[1])
		for _, f := range w.frames() {
			var b bytes.Buffer
			for _, x := range f.Rows {
				b.WriteByte(byte(x))
				b.WriteByte(byte(x >> 8))
			}
			out = append(out, b.Bytes())
		}
	case *deltaRWWorkload:
		out = append(out, []byte(w.seedSpec))
		for _, ss := range w.streams {
			out = append(out, ss[:]...)
		}
	}
	return out
}

func TestSeedDeterminesRequestBodies(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b, other := requestBodies(mustWorkload(t, name, 3)), requestBodies(mustWorkload(t, name, 3)),
				requestBodies(mustWorkload(t, name, 4))
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("got %d and %d bodies", len(a), len(b))
			}
			differs := false
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("seed 3 body %d differs between two generations", i)
				}
				differs = differs || i >= len(other) || !bytes.Equal(a[i], other[i])
			}
			if !differs {
				t.Fatal("seeds 3 and 4 generate identical request bodies")
			}
		})
	}
}

func TestQuartileMatchesPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for k, want := range []float64{2.75, 5.5, 8.25} {
		if got := quartile(xs, k+1); got != want {
			t.Errorf("quartile %d = %v, want %v", k+1, got, want)
		}
	}
}

func TestRate(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		head   []float64
		higher bool
		want   string
	}{
		{shift(1), true, "unchanged"},
		{shift(0.7), true, "worse"},
		{shift(1.3), true, "improved"},
		{shift(0.7), false, "improved"},
		{[]float64{50, 150, 60, 140, 100, 100, 55, 145, 100, 100}, true, "unresolved"},
	} {
		if got := rate(base, tc.head, tc.higher, 0.2); got != tc.want {
			t.Errorf("rate(head %v, higher %v) = %s, want %s", tc.head[:3], tc.higher, got, tc.want)
		}
	}
}

// TestLoadLoops drives both loops from two clients against an in-process
// daemon: every answer checks out and the open loop keeps its schedule.
func TestLoadLoops(t *testing.T) {
	ctx := context.Background()
	c := newTestServer(t)
	wl := mustWorkload(t, "delta-rw", 5)
	if err := wl.setup(ctx, c); err != nil {
		t.Fatal(err)
	}
	snd := &sender{wl: wl, clients: []*server.Client{c, c}, next: make([]int, 2)}
	cl := snd.closedLoop(ctx, 300*time.Millisecond)
	ol := snd.openLoop(ctx, 100, 300*time.Millisecond)
	for name, p := range map[string]*phase{"closed": cl, "open": ol} {
		if p.failed != 0 || p.requests == 0 || len(p.latMS) != p.requests {
			t.Errorf("%s loop: %d requests, %d failed (first: %v), %d latencies",
				name, p.requests, p.failed, p.firstErr, len(p.latMS))
		}
	}
	if ol.requests != 30 {
		t.Errorf("open loop sent %d requests, want 30 (100/s for 300ms)", ol.requests)
	}
}
