package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/faqdb/faq/internal/core"
	"github.com/faqdb/faq/internal/server"
	"github.com/faqdb/faq/internal/spec"
)

// answer is a query result in a form comparable across value domains:
// each value as its bits (a float64's IEEE bits, an int64, or 0/1 for a
// bool), so equal answers are bit-identical.  A scalar result has one
// value and no tuples.
type answer struct {
	listing bool
	tuples  [][]int
	values  []uint64
}

// errWrong marks a response whose answer disagrees with the oracle, as
// opposed to a request that failed.
type errWrong struct{ msg string }

func (e *errWrong) Error() string { return "wrong answer: " + e.msg }

func wrongf(format string, args ...any) error { return &errWrong{fmt.Sprintf(format, args...)} }

// check compares a daemon answer against the expected one.
func (want *answer) check(got answer) error {
	if want.listing != got.listing {
		return wrongf("listing=%v, want %v", got.listing, want.listing)
	}
	if len(got.tuples) != len(want.tuples) || len(got.values) != len(want.values) {
		return wrongf("%d rows of %d values, want %d of %d", len(got.tuples), len(got.values),
			len(want.tuples), len(want.values))
	}
	for i, v := range want.values {
		if got.values[i] != v || (want.listing && !slices.Equal(got.tuples[i], want.tuples[i])) {
			return wrongf("row %d: %v = %#x, want %v = %#x", i, got.tuples[i], got.values[i], want.tuples[i], v)
		}
	}
	return nil
}

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func intBits(v int64) uint64     { return uint64(v) }
func boolBits(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// answerOf renders an engine result.
func answerOf[V any](res *core.Result[V], bits func(V) uint64) answer {
	if len(res.FreeVars) == 0 {
		return answer{tuples: [][]int{nil}, values: []uint64{bits(res.Scalar())}}
	}
	n := res.Output.Size()
	a := answer{listing: true, tuples: make([][]int, n), values: make([]uint64, n)}
	for i := range n {
		a.tuples[i] = res.Output.Tuple(i, nil)
		a.values[i] = bits(res.Output.Values[i])
	}
	return a
}

// answerOfResponse renders a daemon response's value or output listing,
// typed by its domain.
func answerOfResponse(domain string, value any, out *server.OutputData) (answer, error) {
	if out == nil {
		r := &server.QueryResponse{Domain: domain, Value: value}
		var bits uint64
		var err error
		switch domain {
		case spec.DomainInt:
			var v int64
			v, err = r.IntValue()
			bits = intBits(v)
		case spec.DomainBool:
			var v bool
			v, err = r.BoolValue()
			bits = boolBits(v)
		default:
			var v float64
			v, err = r.FloatValue()
			bits = floatBits(v)
		}
		return answer{tuples: [][]int{nil}, values: []uint64{bits}}, err
	}
	a := answer{listing: true, tuples: out.Tuples}
	switch domain {
	case spec.DomainInt:
		vs, err := out.IntValues()
		a.values = columnBits(vs, intBits)
		return a, err
	case spec.DomainBool:
		vs, err := out.BoolValues()
		a.values = columnBits(vs, boolBits)
		return a, err
	}
	vs, err := out.FloatValues()
	a.values = columnBits(vs, floatBits)
	return a, err
}

func columnBits[V any](vs []V, bits func(V) uint64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = bits(v)
	}
	return out
}

// oracle evaluates queries in-process along the spec's own expression
// order σ = (0, 1, …, n−1) on one worker, while the daemon runs the
// ordering its planner chose.  Agreement of the two is a live check that
// the planned ordering is φ-equivalent to σ.
type oracle struct {
	f *core.Engine[float64]
	i *core.Engine[int64]
	b *core.Engine[bool]
}

func newOracle() *oracle {
	f := core.NewEngine[float64](core.EngineOptions{Workers: 1})
	return &oracle{f: f, i: core.Retype[int64](f), b: core.Retype[bool](f)}
}

func (o *oracle) close() { o.f.Close() }

// evalSpec parses and builds spec text and evaluates it along its
// expression order, returning the answer and the run's work counters.
func (o *oracle) evalSpec(text string) (answer, core.Stats, error) {
	doc, err := spec.ParseDocument(strings.NewReader(text))
	if err != nil {
		return answer{}, core.Stats{}, err
	}
	switch doc.Domain {
	case spec.DomainInt:
		return evalExpressionOrder(o.i, doc, buildInt, intBits)
	case spec.DomainBool:
		return evalExpressionOrder(o.b, doc, buildBool, boolBits)
	case spec.DomainTropical:
		return evalExpressionOrder(o.f, doc, buildTropical, floatBits)
	}
	return evalExpressionOrder(o.f, doc, buildFloat, floatBits)
}

// Per-domain builders without dataset resolvers, as plain functions.
func buildFloat(d *spec.Document) (*core.Query[float64], [][]int, error) { return d.BuildFloat() }
func buildInt(d *spec.Document) (*core.Query[int64], [][]int, error)     { return d.BuildInt() }
func buildBool(d *spec.Document) (*core.Query[bool], [][]int, error)     { return d.BuildBool() }
func buildTropical(d *spec.Document) (*core.Query[float64], [][]int, error) {
	return d.BuildTropical()
}

func evalExpressionOrder[V any](eng *core.Engine[V], doc *spec.Document,
	build func(*spec.Document) (*core.Query[V], [][]int, error), bits func(V) uint64) (answer, core.Stats, error) {
	q, _, err := build(doc)
	if err != nil {
		return answer{}, core.Stats{}, err
	}
	order := make([]int, q.NVars)
	for i := range order {
		order[i] = i
	}
	opts := core.DefaultOptions()
	opts.Workers = 1
	prep, err := eng.PrepareOrder(q, order, opts)
	if err != nil {
		return answer{}, core.Stats{}, err
	}
	res, err := prep.Run(context.Background())
	if err != nil {
		return answer{}, core.Stats{}, err
	}
	return answerOf(res, bits), res.Stats, nil
}
