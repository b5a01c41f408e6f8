package sjos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sjos/internal/exec"
)

// TestGrandConsistency is the repository's widest property test: on random
// documents and random patterns, every execution engine must agree —
// the optimizers' plans (cost-based and greedy), the DPP′ ablation, the
// holistic TwigStack join, and (indirectly, through the per-package suites)
// the brute-force reference. Counts, multisets of matches and the
// ordered-output contract are all checked through the public facade.
func TestGrandConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(987))
	tags := []string{"a", "b", "c", "d"}
	methods := []Method{MethodDP, MethodDPP, MethodDPPNoLookahead, MethodDPAPEB, MethodDPAPLD, MethodFP, MethodGreedy}
	for trial := 0; trial < 12; trial++ {
		doc := randomXML(rng, 30+rng.Intn(250), tags)
		db, err := LoadXMLString(doc, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for q := 0; q < 6; q++ {
			pat := randomTwig(rng, tags, 2+rng.Intn(4))
			var want []string
			for mi, m := range methods {
				res, err := db.QueryPattern(pat, m)
				if err != nil {
					t.Fatalf("trial %d %v on %s: %v", trial, m, pat, err)
				}
				got := canonicalize(res.Matches)
				if mi == 0 {
					want = got
					continue
				}
				if !equalStrings(got, want) {
					t.Fatalf("trial %d: %v disagrees on %s: %d vs %d matches",
						trial, m, pat, len(got), len(want))
				}
			}
			tw, err := db.TwigStack(pat)
			if err != nil {
				t.Fatalf("trial %d TwigStack on %s: %v", trial, pat, err)
			}
			if !equalStrings(canonicalize(tw), want) {
				t.Fatalf("trial %d: TwigStack disagrees on %s: %d vs %d",
					trial, pat, len(tw), len(want))
			}
		}
	}
}

// randomXML builds a random document as XML text, exercising the parse path
// too.
func randomXML(rng *rand.Rand, n int, tags []string) string {
	var sb strings.Builder
	var gen func(budget int) int
	gen = func(budget int) int {
		used := 0
		for used < budget {
			take := 1
			if budget-used > 1 {
				take = 1 + rng.Intn(budget-used)
			}
			tag := tags[rng.Intn(len(tags))]
			sb.WriteString("<" + tag + ">")
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&sb, "%d", rng.Intn(50))
			}
			gen(take - 1)
			sb.WriteString("</" + tag + ">")
			used += take
		}
		return used
	}
	sb.WriteString("<root>")
	gen(n)
	sb.WriteString("</root>")
	return sb.String()
}

// randomTwig builds a random pattern over the tag alphabet: a chain with
// occasional predicate branches; about half get an OrderBy node.
func randomTwig(rng *rand.Rand, tags []string, n int) *Pattern {
	var sb strings.Builder
	sb.WriteString("//" + tags[rng.Intn(len(tags))])
	for i := 1; i < n; i++ {
		tag := tags[rng.Intn(len(tags))]
		switch rng.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, "[%s]", tag) // child-axis branch
		case 1:
			fmt.Fprintf(&sb, "[.//%s]", tag) // descendant-axis branch
		case 2:
			fmt.Fprintf(&sb, "/%s", tag) // extend chain, child
		default:
			fmt.Fprintf(&sb, "//%s", tag) // extend chain, descendant
		}
	}
	p := MustParsePattern(sb.String())
	if rng.Intn(2) == 0 {
		p.OrderBy = rng.Intn(p.N())
	}
	return p
}

// canonicalize renders matches as sorted "id,id,..." strings, a canonical
// multiset form for comparing results of different plans and oracles.
func canonicalize(ms []Match) []string {
	out := make([]string, len(ms))
	var buf []byte
	for i, m := range ms {
		buf = buf[:0]
		for j, id := range m {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendUint(buf, uint64(id), 10)
		}
		out[i] = string(buf)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracleLanes are the executor lanes every oracle matrix covers: serial and
// partition-parallel execution, each materialised and CountOnly.
var oracleLanes = []struct {
	name string
	opts RunOptions
}{
	{"serial", RunOptions{}},
	{"serial-count", RunOptions{CountOnly: true}},
	{"parallel", RunOptions{Workers: 3}},
	{"parallel-count", RunOptions{Workers: 3, CountOnly: true}},
}

// referenceMatches is the brute-force oracle (exec.ReferenceMatches) over
// db's document, canonicalised. It shares no code with the optimizers, the
// stores or the executor; it is exponential in the worst case, so it suits
// small random documents.
func referenceMatches(db *Database, pat *Pattern) []string {
	return canonicalize(exec.ReferenceMatches(db.view().doc, pat))
}

// twigStackMatches is the holistic twig join oracle (Database.TwigStack),
// canonicalised. It evaluates the whole pattern at once over the in-memory
// document, so it scales to the generated data sets.
func twigStackMatches(t *testing.T, db *Database, pat *Pattern) []string {
	t.Helper()
	ms, err := db.TwigStack(pat)
	if err != nil {
		t.Fatalf("TwigStack on %s: %v", pat, err)
	}
	return canonicalize(ms)
}

// checkOracleLanes runs p on db in every oracle lane and fails unless each
// returns exactly want: the canonical match multiset when materialised, and
// its size (with no matches) under CountOnly.
func checkOracleLanes(t *testing.T, db *Database, pat *Pattern, p *Plan, want []string, label string) {
	t.Helper()
	for _, lane := range oracleLanes {
		r, err := db.Run(context.Background(), pat, p, lane.opts)
		if err != nil {
			t.Fatalf("%s %s on %s: %v", label, lane.name, pat, err)
		}
		if r.Count != len(want) {
			t.Fatalf("%s %s on %s: Count = %d, oracle %d", label, lane.name, pat, r.Count, len(want))
		}
		if lane.opts.CountOnly {
			if r.Matches != nil {
				t.Fatalf("%s %s on %s: CountOnly materialised %d matches", label, lane.name, pat, len(r.Matches))
			}
			continue
		}
		if got := canonicalize(r.Matches); !equalStrings(got, want) {
			t.Fatalf("%s %s on %s: %d matches disagree with the oracle's %d", label, lane.name, pat, len(got), len(want))
		}
	}
}
