package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/faqdb/faq/internal/server"
)

// requestTimeout bounds one request; a run never waits longer on a hung
// daemon.
const requestTimeout = 60 * time.Second

// traceKey marks a request context whose request should carry the
// daemon's trace header.
type traceKey struct{}

// traceTransport adds X-FAQ-Trace: 1 to requests whose context asks for it.
type traceTransport struct{ base http.RoundTripper }

func (t traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Context().Value(traceKey{}) != nil {
		r = r.Clone(r.Context())
		r.Header.Set("X-FAQ-Trace", "1")
	}
	return t.base.RoundTrip(r)
}

// newClients returns n clients sharing one keep-alive transport of at most
// n connections.
func newClients(addr string, n int) []*server.Client {
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	hc := &http.Client{Transport: traceTransport{tr}}
	cs := make([]*server.Client, n)
	for i := range cs {
		cs[i] = &server.Client{BaseURL: "http://" + addr, HTTPClient: hc}
	}
	return cs
}

// phase collects one load phase's outcomes.
type phase struct {
	mu        sync.Mutex
	latMS     []float64 // client-observed (open loop: from intended send time)
	transport []float64 // client latency minus the daemon's elapsed_ms
	elapsed   []float64 // the daemon's elapsed_ms
	lagMS     []float64 // open loop: generator lateness
	requests  int
	queries   int
	failed    int
	wrong     int
	firstErr  error
	wall      time.Duration
	cpu       time.Duration // daemon CPU over the phase, where measured
}

// record notes one request's outcome.
func (p *phase) record(queries int, lat time.Duration, elapsedMS float64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.requests++
	if err != nil {
		p.failed++
		var w *errWrong
		if errors.As(err, &w) {
			p.wrong++
		}
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	ms := float64(lat) / 1e6
	p.queries += queries
	p.latMS = append(p.latMS, ms)
	p.elapsed = append(p.elapsed, elapsedMS)
	p.transport = append(p.transport, ms-elapsedMS)
}

// sender issues one request for client g and counts its outcome.  next
// holds each client's request counter, which runs on across phases so
// stateful workloads (delta sessions) stay in step.
type sender struct {
	wl      workload
	clients []*server.Client
	next    []int
}

func (s *sender) send(ctx context.Context, g int, p *phase, start time.Time) {
	i := s.next[g]
	s.next[g]++
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	el, err := s.wl.send(rctx, s.clients[g], g, i)
	p.record(s.wl.queriesPer(), time.Since(start), el, err)
}

// closedLoop runs every client back to back for d: each sends its next
// request as soon as the previous one completes.
func (s *sender) closedLoop(ctx context.Context, d time.Duration) *phase {
	p := &phase{}
	t0 := time.Now()
	stop := t0.Add(d)
	var wg sync.WaitGroup
	for g := range s.clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				s.send(ctx, g, p, time.Now())
			}
		}(g)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	return p
}

// openLoop sends requests on a fixed schedule of rate per second for d,
// dealt round-robin to the clients; each client sends its share in order.
// Latency runs from the intended send time, so a stall also charges the
// requests queued behind it.  Requests still unsent at twice d count as
// failed: the daemon could not sustain the rate.
func (s *sender) openLoop(ctx context.Context, rate float64, d time.Duration) *phase {
	p := &phase{}
	n := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	giveUp := t0.Add(2 * d)
	var wg sync.WaitGroup
	for g := range s.clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var free time.Time // when this client's previous request completed
			for j := g; j < n; j += len(s.clients) {
				due := t0.Add(time.Duration(j) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				now := time.Now()
				if now.After(giveUp) || ctx.Err() != nil {
					p.record(0, 0, 0, fmt.Errorf("request due at +%v not sent by +%v", due.Sub(t0), 2*d))
					continue
				}
				ready := due
				if free.After(ready) {
					ready = free
				}
				lag := float64(now.Sub(ready)) / 1e6
				s.send(ctx, g, p, due)
				free = time.Now()
				p.mu.Lock()
				p.lagMS = append(p.lagMS, lag)
				p.mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	return p
}

// traceAlternation sends requests from one client for d, alternating the
// daemon's trace header on and off, and returns the daemon-side elapsed
// times of each half.
func (s *sender) traceAlternation(ctx context.Context, d time.Duration) (on, off *phase) {
	on, off = &phase{}, &phase{}
	stop := time.Now().Add(d)
	for k := 0; time.Now().Before(stop) && ctx.Err() == nil; k++ {
		if k%2 == 0 {
			s.send(context.WithValue(ctx, traceKey{}, true), 0, on, time.Now())
		} else {
			s.send(ctx, 0, off, time.Now())
		}
	}
	return on, off
}

// quantile returns the q-quantile of xs by linear interpolation
// (statistics.quantiles' inclusive method); NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// merge pools the samples of several windows.
func merge(ws []*phase) *phase {
	m := &phase{}
	for _, w := range ws {
		m.latMS = append(m.latMS, w.latMS...)
		m.transport = append(m.transport, w.transport...)
		m.elapsed = append(m.elapsed, w.elapsed...)
		m.lagMS = append(m.lagMS, w.lagMS...)
	}
	return m
}

// windowMedian is the median over windows of a per-window statistic.
func windowMedian(ws []*phase, f func(*phase) float64) float64 {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = f(w)
	}
	return median(vs)
}

// windowQuantile is the median over windows of each window's q-quantile
// latency when every window has at least ten samples beyond it, and the
// q-quantile of all samples otherwise.
func windowQuantile(ws []*phase, q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	for _, w := range ws {
		if len(w.latMS) < need {
			return quantile(merge(ws).latMS, q)
		}
	}
	return windowMedian(ws, func(p *phase) float64 { return quantile(p.latMS, q) })
}
