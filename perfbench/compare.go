package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of untraced runs.  Each argument is a file
// holding the concatenated output of runs; their record lines are grouped
// by workload.  For each workload × end-to-end metric it prints both
// medians and quartiles and rates the pairing against the metric's bound:
//
//   - worse: the head median is worse than the base median by more than
//     the bound;
//   - unresolved: not worse, but either side's quartile spread exceeds the
//     bound, and the head runs do not all beat the base runs;
//   - improved: the head wins at least nine tenths of the run pairs and
//     the medians differ by more than the base's quartile spread;
//   - unchanged: otherwise.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE_RUNS HEAD_RUNS  (run from the repository root)")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: BENCHMARK.json: %v\n", err)
		return 2
	}
	base, err := readRecords(args[0])
	if err == nil {
		var head map[string][]*record
		if head, err = readRecords(args[1]); err == nil {
			return compareRecords(spec, base, head, out)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
	return 2
}

// readRecords collects the untraced run records of a file by workload.
func readRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"record":`) {
			continue
		}
		var wrap struct{ Record *record }
		if err := json.Unmarshal([]byte(line), &wrap); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if wrap.Record.Trace == 0 {
			recs[wrap.Record.Workload] = append(recs[wrap.Record.Workload], wrap.Record)
		}
	}
	return recs, sc.Err()
}

func compareRecords(spec benchSpec, base, head map[string][]*record, out io.Writer) int {
	var names []string
	for w := range base {
		if len(head[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench compare: no workload has runs on both sides")
		return 2
	}
	fmt.Fprintf(out, "%-14s %-18s %4s %4s %12s %25s %12s %25s  %s\n",
		"workload", "metric", "nb", "nh", "base_median", "base_q1..q3", "head_median", "head_q1..q3", "rating")
	worse := 0
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			b, h := values(base[w], m.Name), values(head[w], m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			rating := rate(b, h, m.Better == "higher", m.Bound)
			if rating == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-14s %-18s %4d %4d %12.6g %25s %12.6g %25s  %s\n", w, m.Name, len(b), len(h),
				quantile(b, 0.5), quartiles(b), quantile(h, 0.5), quartiles(h), rating)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

func values(recs []*record, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// quartiles prints q1..q3 with the exclusive method Python's
// statistics.quantiles uses by default.
func quartiles(xs []float64) string {
	q1, q3 := quartile(xs, 1), quartile(xs, 3)
	return fmt.Sprintf("%.6g..%.6g", q1, q3)
}

// quartile is statistics.quantiles(xs, n=4)[k-1] (method "exclusive").
func quartile(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0]
	}
	m := float64(n + 1)
	j := int(math.Floor(float64(k) * m / 4))
	delta := float64(k)*m/4 - float64(j)
	j = max(1, min(j, n-1))
	return s[j-1] + delta*(s[j]-s[j-1])
}

// rate classifies head against base for one metric.
func rate(base, head []float64, higherBetter bool, bound float64) string {
	mb, mh := quantile(base, 0.5), quantile(head, 0.5)
	better := func(a, b float64) bool { return (higherBetter && a > b) || (!higherBetter && a < b) }
	worseBy := (mb - mh) / mb
	if !higherBetter {
		worseBy = (mh - mb) / mb
	}
	if worseBy > bound {
		return "worse"
	}
	spreadB := (quartile(base, 3) - quartile(base, 1)) / mb
	spreadH := (quartile(head, 3) - quartile(head, 1)) / mh
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	wins, pairs := 0, min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	switch {
	case (spreadB > bound || spreadH > bound) && !allBetter:
		return "unresolved"
	case 10*wins >= 9*pairs && math.Abs(mh-mb) > quartile(base, 3)-quartile(base, 1):
		return "improved"
	}
	return "unchanged"
}
