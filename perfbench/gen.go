package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// rngFor returns a generator seeded from the run seed and a stream label,
// so every input stream is reproducible on its own and independent of the
// order in which the others are drawn.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// shapeSpec is one generated ad-hoc FAQ query: its spec text and value
// domain.  The expected answer is computed by the oracle, not here.
type shapeSpec struct {
	domain string
	text   string
}

// Generation bounds of the ad-hoc shape pool.  Values are small integers so
// that float answers are exact and compare bit for bit across orderings.
const (
	shapeMinVars = 5
	shapeMaxVars = 10
	shapeMaxFree = 2
	shapeDom     = 8
)

// genShape draws one random FAQ shape: 5–10 variables of domain size 8,
// 0–2 free, a spanning tree of binary factors plus a few extra
// binary/ternary/unary ones, each with dom..3·dom distinct inline rows.
func genShape(r *rand.Rand) shapeSpec {
	var domain string
	switch p := r.Intn(10); {
	case p < 4:
		domain = "float"
	case p < 6:
		domain = "int"
	case p < 8:
		domain = "bool"
	default:
		domain = "tropical"
	}
	n := shapeMinVars + r.Intn(shapeMaxVars-shapeMinVars+1)
	nfree := r.Intn(shapeMaxFree + 1)
	d := shapeDom
	// Int shapes mix sum with either prod or max, never both: int64
	// arithmetic wraps, which keeps sum/prod a ring but breaks max.
	intProd := r.Intn(2) == 0

	var b strings.Builder
	if domain != "float" {
		fmt.Fprintf(&b, "domain %s\n", domain)
	}
	for v := 0; v < n; v++ {
		agg := "free"
		if v >= nfree {
			agg = pickAgg(r, domain, intProd)
		}
		fmt.Fprintf(&b, "var v%d %d %s\n", v, d, agg)
	}

	var scopes [][]int
	for v := 1; v < n; v++ {
		scopes = append(scopes, []int{r.Intn(v), v})
	}
	for k := 1 + r.Intn(3); k > 0; k-- {
		scopes = append(scopes, r.Perm(n)[:2+r.Intn(2)])
	}
	if r.Intn(10) < 3 {
		scopes = append(scopes, []int{r.Intn(n)})
	}
	for _, sc := range scopes {
		b.WriteString("factor")
		for _, v := range sc {
			fmt.Fprintf(&b, " v%d", v)
		}
		b.WriteByte('\n')
		capRows := int(math.Pow(float64(d), float64(len(sc))))
		rows := min(d+r.Intn(2*d+1), capRows)
		seen := make(map[int]bool, rows)
		tup := make([]int, len(sc))
		for len(seen) < rows {
			key := 0
			for j := range tup {
				tup[j] = r.Intn(d)
				key = key*d + tup[j]
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			for _, x := range tup {
				fmt.Fprintf(&b, "%d ", x)
			}
			fmt.Fprintf(&b, "= %s\n", pickValue(r, domain))
		}
		b.WriteString("end\n")
	}
	return shapeSpec{domain: domain, text: b.String()}
}

func pickAgg(r *rand.Rand, domain string, intProd bool) string {
	p := r.Intn(20)
	switch domain {
	case "float":
		if p < 12 {
			return "sum"
		}
		return "max"
	case "int":
		switch {
		case p < 12:
			return "sum"
		case intProd && p < 16:
			return "prod"
		case intProd:
			return "sum"
		}
		return "max"
	case "bool":
		if p < 17 {
			return "or"
		}
		return "prod"
	}
	if p < 17 {
		return "min"
	}
	return "prod"
}

func pickValue(r *rand.Rand, domain string) string {
	switch domain {
	case "bool":
		return "1"
	case "tropical":
		return strconv.Itoa(r.Intn(10))
	}
	return strconv.Itoa(1 + r.Intn(2))
}

// genEdges draws about m distinct directed edges over nv vertices, returned
// as a row-major (u, v) block in random order (so the daemon sorts).
// Out-degrees follow a fixed skewed sequence, degree ∝ (k+16)^-1.2 for the
// k-th source, so every seed yields the same degree distribution and only
// the vertex labels and targets vary; targets are uniform.  There are no
// self-loops.
func genEdges(r *rand.Rand, nv, m int) []int32 {
	weights := make([]float64, nv)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+16), -1.2)
		total += weights[k]
	}
	perm := r.Perm(nv)
	var edges [][2]int32
	seen := make(map[[2]int32]bool, m)
	for k, w := range weights {
		deg := min(int(math.Round(float64(m)*w/total)), nv/2)
		for n := 0; n < deg; {
			e := [2]int32{int32(perm[k]), int32(r.Intn(nv))}
			if e[0] == e[1] || seen[e] {
				continue
			}
			seen[e] = true
			edges = append(edges, e)
			n++
		}
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	rows := make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		rows = append(rows, e[0], e[1])
	}
	return rows
}

// absentEdges draws m distinct uniform random edges over nv vertices that
// are not in present and are not self-loops.
func absentEdges(r *rand.Rand, nv, m int, present map[[2]int32]bool) []int32 {
	seen := make(map[[2]int32]bool, m)
	rows := make([]int32, 0, 2*m)
	for len(seen) < m {
		e := [2]int32{int32(r.Intn(nv)), int32(r.Intn(nv))}
		if e[0] == e[1] || seen[e] || present[e] {
			continue
		}
		seen[e] = true
		rows = append(rows, e[0], e[1])
	}
	return rows
}

// edgeSet indexes an edge block for membership tests.
func edgeSet(rows []int32) map[[2]int32]bool {
	s := make(map[[2]int32]bool, len(rows)/2)
	for i := 0; i < len(rows); i += 2 {
		s[[2]int32{rows[i], rows[i+1]}] = true
	}
	return s
}

// ones is a value column of n ones.
func ones(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = 1
	}
	return vs
}

// triangleSpec renders Σ ψ0(x,y)·ψ1(y,z)·ψ2(x,z) over nv vertices, with x
// free when free is set.  data holds each factor's inline (u, v) rows with
// value 1; nil data renders empty blocks (the shape alone), and dataset
// names a resident dataset whose factors @0..@2 are referenced instead.
func triangleSpec(nv int, free bool, data [3][]int32, dataset string) string {
	var b strings.Builder
	if dataset != "" {
		fmt.Fprintf(&b, "use %s\n", dataset)
	}
	xAgg := "sum"
	if free {
		xAgg = "free"
	}
	fmt.Fprintf(&b, "var x %d %s\nvar y %d sum\nvar z %d sum\n", nv, xAgg, nv, nv)
	for i, vars := range []string{"x y", "y z", "x z"} {
		if dataset != "" {
			fmt.Fprintf(&b, "factor %s @%d\n", vars, i)
			continue
		}
		fmt.Fprintf(&b, "factor %s\n", vars)
		rows := data[i]
		for j := 0; j < len(rows); j += 2 {
			b.WriteString(strconv.Itoa(int(rows[j])))
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(int(rows[j+1])))
			b.WriteString(" = 1\n")
		}
		b.WriteString("end\n")
	}
	return b.String()
}
