// Command perfbench is faqd's benchmark.  It generates every input from a
// seed, runs faqd as a child process on 127.0.0.1, drives one workload from
// at most two client connections, checks every answer against an
// in-process oracle, and prints each metric by name with its unit.  The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 they are the per-layer ones, from a separate traced
// replay of the workload's requests in this process.  The line before it
// is the run's full record, with a machine fingerprint, for the
// comparator (perfbench compare).  See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/faqdb/faq/internal/server"
)

// setupRepeats is how many times an untraced run boots and readies a
// daemon; setup_s is the median.
const setupRepeats = 9

// measureRounds is the number of closed-loop and open-loop windows a run
// alternates between.  Throughput and CPU are medians over the windows;
// so are latency percentiles whenever every window holds at least ten
// samples beyond the percentile, else they are taken over all samples.
const measureRounds = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	faqd     string
	workdir  string
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds of one run")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	flag.StringVar(&cfg.faqd, "faqd", "", "faqd binary to run as the child daemon")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for daemon data, replay stores and span dumps")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		return compareMain(flag.Args()[1:], os.Stdout)
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec, err := measure(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	rec.print(os.Stdout)
	if !rec.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers, first: %s\n", rec.Wrong, rec.FirstError)
		return 1
	}
	return 0
}

func (c config) validate() error {
	if _, ok := openLoopRate[c.workload]; !ok {
		return fmt.Errorf("-workload %q: want one of %s", c.workload, strings.Join(workloadNames, ", "))
	}
	if !(c.seconds > 0 && c.seconds <= 120) {
		return fmt.Errorf("-seconds %v: want (0, 120]", c.seconds)
	}
	if c.trace != 0 && c.trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", c.trace)
	}
	if c.faqd == "" {
		return errors.New("-faqd is required (perfbench/run.sh builds and passes it)")
	}
	return os.MkdirAll(c.workdir, 0o755)
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fingerprint identifies the code and machine a record was measured on.
type fingerprint struct {
	GitSHA           string `json:"git_sha"`
	GitDirty         bool   `json:"git_dirty"`
	NProc            int    `json:"nproc"`
	GOMAXPROCSBench  int    `json:"gomaxprocs_bench"`
	GOMAXPROCSDaemon int    `json:"gomaxprocs_daemon"`
	CPUModel         string `json:"cpu_model"`
	GoVersion        string `json:"go_version"`
}

// record is everything one run measured.
type record struct {
	Schema      int               `json:"schema"`
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       int               `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Requests    map[string]int    `json:"requests"` // per phase
	Samples     map[string]int    `json:"samples"`  // per latency metric
	GenerateS   float64           `json:"generate_s"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Wrong       int               `json:"wrong"`
	ErrorRate   float64           `json:"error_rate"`
	FirstError  string            `json:"first_error,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
}

func (r *record) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// count folds a phase's outcomes into the record's totals.
func (r *record) count(name string, p *phase) {
	if p == nil {
		return
	}
	r.Requests[name] += p.requests
	r.Attempted += p.requests
	r.Failed += p.failed
	r.Wrong += p.wrong
	if p.firstErr != nil && r.FirstError == "" {
		r.FirstError = p.firstErr.Error()
	}
}

// print writes one line per metric, the record, and the result line.
func (r *record) print(out io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "requests %v, errors %d/%d, error_rate %g\n", r.Requests, r.Failed, r.Attempted, r.ErrorRate)
	line, _ := json.Marshal(map[string]any{"record": r})
	fmt.Fprintf(out, "%s\n", line)
	result, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(out, "%s\n", result)
}

// measure runs one workload end to end: generate inputs, boot and ready
// the daemon, run the load phases, and with tracing the in-process replay.
func measure(ctx context.Context, cfg config) (*record, error) {
	clients := min(2, runtime.NumCPU())
	procs := runtime.NumCPU()
	rec := &record{Schema: 1, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Fingerprint: machine(procs), Requests: map[string]int{}, Samples: map[string]int{},
		Metrics: map[string]metric{}}

	t := time.Now()
	o := newOracle()
	wl, err := newWorkload(cfg.workload, cfg.seed, clients, o)
	o.close()
	if err != nil {
		return nil, err
	}
	rec.GenerateS = time.Since(t).Seconds()
	traced := cfg.trace == 1
	frac := func(f float64) time.Duration { return time.Duration(f * cfg.seconds * float64(time.Second)) }

	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	// boot starts a daemon and readies it for traffic, timing both.
	var setups []float64
	boot := func() error {
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, cfg.faqd, cfg.workdir, procs); err != nil {
			return err
		}
		if err := wl.setup(ctx, newClients(d.addr, 1)[0]); err != nil {
			return d.failure(fmt.Sprintf("set-up failed: %v", err))
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	// stop drains the daemon, which must exit 0.
	stop := func() error {
		err := d.stop()
		d = nil
		return err
	}
	// Untraced runs boot extra daemons before and after the measured one,
	// so setup_s is a median over set-ups spread across the run.
	extraBoots := func(n int) error {
		for k := 0; k < n; k++ {
			if err := boot(); err != nil {
				return err
			}
			if err := stop(); err != nil {
				return err
			}
		}
		return nil
	}
	extra := 0
	if !traced {
		extra = (setupRepeats - 1) / 2
	}
	if err := extraBoots(extra); err != nil {
		return nil, err
	}
	if err := boot(); err != nil {
		return nil, err
	}

	cs := newClients(d.addr, clients)
	snd := &sender{wl: wl, clients: cs, next: make([]int, clients)}
	closedFrac, openFrac := 0.4, 0.5
	if traced {
		closedFrac, openFrac = 0.2, 0.15
	}
	rec.count("warmup", snd.closedLoop(ctx, frac(0.1)))
	// The closed and open loops alternate in rounds, so a stretch of machine
	// noise hits a few windows of each rather than one whole phase.
	var closed, open []*phase
	for r := 0; r < measureRounds; r++ {
		cpu0, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		cw := snd.closedLoop(ctx, frac(closedFrac)/measureRounds)
		cpu1, err := d.cpuTime()
		if err != nil {
			return nil, err
		}
		cw.cpu = cpu1 - cpu0
		rec.count("closed", cw)
		ow := snd.openLoop(ctx, openLoopRate[cfg.workload], frac(openFrac)/measureRounds)
		rec.count("open", ow)
		closed, open = append(closed, cw), append(open, ow)
	}
	var on, off *phase
	var st *server.StatszResponse
	if traced {
		on, off = snd.traceAlternation(ctx, frac(0.15))
		rec.count("trace_on", on)
		rec.count("trace_off", off)
		var err error
		if st, err = cs[0].Statsz(ctx); err != nil {
			return nil, d.failure(fmt.Sprintf("statsz: %v", err))
		}
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := stop(); err != nil {
		return nil, err
	}
	if err := extraBoots(setupRepeats - 1 - extra); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	cl, ol := merge(closed), merge(open)
	rec.Samples["latency"] = len(cl.latMS)
	rec.Samples["ol_latency"] = len(ol.latMS)
	rec.Samples["windows"] = measureRounds

	if !traced {
		rec.set("qps", windowMedian(closed, func(p *phase) float64 { return float64(p.queries) / p.wall.Seconds() }), "1/s")
		rec.set("latency_p50_ms", windowQuantile(closed, 0.5), "ms")
		rec.set("latency_p90_ms", windowQuantile(closed, 0.9), "ms")
		rec.set("ol_latency_p50_ms", windowQuantile(open, 0.5), "ms")
		rec.set("ol_latency_p90_ms", windowQuantile(open, 0.9), "ms")
		rec.set("cpu_ms_per_query", windowMedian(closed, func(p *phase) float64 {
			return float64(p.cpu) / 1e6 / float64(max(p.queries, 1))
		}), "ms")
		rec.set("rss_peak_mb", rss, "MB")
		rec.set("setup_s", median(setups), "s")
	} else {
		if err := perLayer(ctx, cfg, wl, rec, cl, ol, on, off, st, frac(0.4)); err != nil {
			return nil, err
		}
	}
	rec.ErrorRate = float64(rec.Failed) / float64(max(rec.Attempted, 1))
	rec.Correct = rec.Wrong == 0
	return rec, nil
}

// perLayer runs the traced replay twice, with spans on and off, and fills
// the per-layer metrics from it and from the traced daemon run.
func perLayer(ctx context.Context, cfg config, wl workload, rec *record,
	cl, ol, on, off *phase, st *server.StatszResponse, d time.Duration) error {
	rpOn, err := newReplayer(ctx, cfg.workdir, true)
	if err != nil {
		return err
	}
	defer rpOn.close()
	n, err := rpOn.run(wl, -1, d*2/3)
	if err != nil {
		return err
	}
	rpOff, err := newReplayer(ctx, cfg.workdir, false)
	if err != nil {
		return err
	}
	defer rpOff.close()
	if _, err := rpOff.run(wl, n, 0); err != nil {
		return err
	}
	rec.Requests["replay"] = n
	spanPath := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := rpOn.spans.write(spanPath); err != nil {
		return err
	}

	c := &rpOn.c
	self, calls := rpOn.spans.selfTime()
	q := float64(max(c.queries, 1))
	perQuery := func(name string) float64 { return self[name] / q }
	perCall := func(name string) float64 {
		if calls[name] == 0 {
			return 0
		}
		return self[name] / float64(calls[name])
	}
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	reqs := float64(max(c.requests, 1))

	rec.set("server.overhead_ms", float64(c.serveNS-c.layerNS)/1e6/reqs, "ms")
	rec.set("server.transport_ms", median(cl.transport), "ms")
	daemonReqs := st.Server.Queries + st.Server.Batches + st.Server.Deltas
	rec.set("server.rejected_share", float64(st.Server.Rejected)/float64(max(daemonReqs, 1)), "ratio")
	rec.set("spec.parse_ms", perQuery("spec.parse"), "ms")
	rec.set("spec.build_ms", perQuery("spec.build"), "ms")
	rec.set("spec.bytes_per_query", float64(c.specBytes)/q, "bytes")
	rec.set("wire.decode_ms", perQuery("wire.decode"), "ms")
	rec.set("wire.encode_ms", perQuery("wire.encode"), "ms")
	rec.set("wire.bytes_in_per_query", float64(c.bytesIn)/q, "bytes")
	rec.set("wire.bytes_out_per_query", float64(c.bytesOut)/q, "bytes")
	rec.set("factor.build_ms", perQuery("factor.build"), "ms")
	rec.set("factor.rows_per_query", float64(c.rows)/q, "rows")
	rec.set("sortx.radix_sorts_per_query", float64(c.radix)/q, "count")
	rec.set("sortx.comparison_sorts_per_query", float64(c.comparison)/q, "count")
	rec.set("join.trie_hit_ratio", ratio(c.trie.TrieCacheHits, c.trie.TrieCacheMisses), "ratio")
	rec.set("join.trie_evictions_per_query", float64(c.trie.TrieCacheEvictions)/q, "count")
	daemonQueries := st.Server.Queries + st.Server.BatchItems + st.Server.Deltas
	rec.set("join.daemon_trie_evictions_per_query", float64(st.Engine.TrieCacheEvictions)/float64(max(daemonQueries, 1)), "count")
	rec.set("join.probes_per_query", float64(c.probes)/q, "count")
	rec.set("join.emitted_per_query", float64(c.emitted)/q, "count")
	rec.set("join.parallel_scans_per_query", float64(c.parallelScans)/q, "count")
	rec.set("join.pool_wait_ms", float64(c.poolWaitNS)/1e6/q, "ms")
	rec.set("core.plan_ms", perCall("core.plan"), "ms")
	rec.set("core.prepare_hit_ms", perCall("core.prepare_hit"), "ms")
	rec.set("core.plan_hit_ratio", ratio(st.Engine.PlanCacheHits, st.Engine.PlanCacheMisses), "ratio")
	rec.set("core.plan_width", c.widthSum/float64(max(c.prepares, 1)), "width")
	rec.set("core.run_ms", perQuery("core.run"), "ms")
	rec.set("core.batch_item_ms", float64(c.batchItemNS)/1e6/float64(max(c.batchItems, 1)), "ms")
	rec.set("core.delta_ms", perCall("core.delta"), "ms")
	rec.set("core.delta_ring_share", ratio(c.trie.DeltaRingRuns, c.trie.DeltasApplied-c.trie.DeltaRingRuns), "ratio")
	rec.set("core.intermediate_rows_per_query", float64(c.intermediate)/q, "rows")
	rec.set("core.max_intermediate", float64(c.maxIntermediate), "rows")
	rec.set("store.put_ms", perCall("store.put"), "ms")
	rec.set("store.open_ms", perCall("store.open"), "ms")
	rec.set("store.bytes_mapped", float64(c.bytesMapped), "bytes")
	rec.set("obs.trace_overhead_ms", median(on.elapsed)-median(off.elapsed), "ms")
	rec.set("bench.span_overhead_ms", float64(c.layerNS)/1e6/reqs-float64(rpOff.c.layerNS)/1e6/float64(max(rpOff.c.requests, 1)), "ms")
	rec.set("bench.generator_lag_ms", median(ol.lagMS), "ms")
	return nil
}

// machine fingerprints the code and machine.  The git fields read
// "unknown" outside a git checkout.
func machine(procs int) fingerprint {
	fp := fingerprint{GitSHA: "unknown", NProc: runtime.NumCPU(), GOMAXPROCSBench: runtime.GOMAXPROCS(0),
		GOMAXPROCSDaemon: procs, CPUModel: "unknown", GoVersion: runtime.Version()}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.GitSHA = strings.TrimSpace(string(out))
		st, err := exec.Command("git", "--no-optional-locks", "status", "--porcelain", "--untracked-files=no").Output()
		fp.GitDirty = err != nil || len(st) > 0
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}
