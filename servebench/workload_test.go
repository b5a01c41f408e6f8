package main

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sjos"
)

// inputs is everything a run generates from its seed.
type inputs struct {
	docs      []document
	pool      []query
	fixed     []arrival
	paced     []arrival
	mutArr    []arrival
	mutations []mutation
}

func genInputs(t *testing.T, w workload, seed int64) inputs {
	t.Helper()
	docs, err := corpusDocs(w)
	if err != nil {
		t.Fatal(err)
	}
	pool := queryPool(w, seed)
	arr, muts, err := mutationPlan(w, seed, 40)
	if err != nil {
		t.Fatal(err)
	}
	return inputs{
		docs:      docs,
		pool:      pool,
		fixed:     querySchedule(w, pool, seed, "fixed", w.queryRate, 300, false),
		paced:     querySchedule(w, pool, seed, "capacity-1", 2*w.queryRate, 100, true),
		mutArr:    arr,
		mutations: muts,
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := genInputs(t, w, 7), genInputs(t, w, 7)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("the same seed generated different inputs")
			}
			c := genInputs(t, w, 8)
			if reflect.DeepEqual(a.fixed, c.fixed) || reflect.DeepEqual(a.mutations, c.mutations) {
				t.Error("different seeds generated the same schedule or mutation stream")
			}
			if w.dataset == "dblp" && reflect.DeepEqual(a.pool, c.pool) {
				t.Error("different seeds generated the same predicate literals")
			}
			// The corpus is fixed by design (see corpusDocs).
			if !reflect.DeepEqual(a.docs, c.docs) {
				t.Error("the corpus depends on the seed")
			}
		})
	}
}

func TestScheduleShape(t *testing.T) {
	w, _ := workloadByName("dblp-selective")
	pool := queryPool(w, 1)
	if len(pool) != 2+dblpPoolSize {
		t.Fatalf("pool has %d queries, want %d", len(pool), 2+dblpPoolSize)
	}
	seen := map[string]bool{}
	for _, q := range pool {
		if seen[q.src] {
			t.Fatalf("duplicate pool query %s", q.src)
		}
		seen[q.src] = true
	}
	sched := querySchedule(w, pool, 1, "fixed", 100, 1000, false)
	structural := 0
	for i, a := range sched {
		if i > 0 && a.due < sched[i-1].due {
			t.Fatal("due times are not ordered")
		}
		if a.op < 2 {
			structural++
		}
	}
	// Balanced blocks: exactly one structural query in every five.
	if structural != 200 {
		t.Errorf("%d structural queries in 1000, want 200", structural)
	}
	// 1000 Poisson arrivals at 100/s end near 10 s.
	if last := sched[len(sched)-1].due; last < 9*time.Second || last > 11*time.Second {
		t.Errorf("last arrival at %v, want about 10s", last)
	}
	paced := querySchedule(w, pool, 1, "capacity-1", 50, 10, true)
	if paced[9].due != 180*time.Millisecond {
		t.Errorf("paced arrival 9 due at %v, want 180ms", paced[9].due)
	}
}

func TestMutationPlanIsValid(t *testing.T) {
	for _, w := range workloads {
		_, muts, err := mutationPlan(w, 3, 300)
		if err != nil {
			t.Fatal(err)
		}
		l := ledger{}
		ops := map[string]int{}
		for i, m := range muts {
			_, live := l[m.id]
			if (m.op == "insert") == live {
				t.Fatalf("%s: mutation %d (%s %s) invalid against the ledger", w.name, i, m.op, m.id)
			}
			if (m.op == "delete") != (m.xml == "") {
				t.Fatalf("%s: mutation %d: %s with %d bytes of XML", w.name, i, m.op, len(m.xml))
			}
			ops[m.op]++
			l.apply(m)
		}
		if len(l) != ops["insert"]-ops["delete"] {
			t.Errorf("%s: %d live documents, want inserts - deletes = %d", w.name, len(l), ops["insert"]-ops["delete"])
		}
		if !w.churn && ops["insert"] != len(muts) {
			t.Errorf("%s: the write probe must only insert, got %v", w.name, ops)
		}
	}
}

func TestOpenLoopAccountingBalances(t *testing.T) {
	// 150 requests within 30ms, then 50 due after 10s: closing stop once
	// the first 150 are observed must leave exactly those dispatched.
	sched := make([]arrival, 200)
	for i := range sched {
		sched[i] = arrival{due: time.Duration(i) * 200 * time.Microsecond, op: i}
		if i >= 150 {
			sched[i].due += 10 * time.Second
		}
	}
	boom := errors.New("boom")
	stop := make(chan struct{})
	var observed atomic.Int64
	res := runOpenLoop(sched, []int{0, 1}, loopControl{
		abortAfter: time.Millisecond,
		stop:       stop,
		observe: func(s sample) {
			if observed.Add(1) == 150 {
				close(stop)
			}
		},
	}, func(_ int, op int) error {
		if op%10 == 0 {
			time.Sleep(3 * time.Millisecond) // falls behind: later requests skip
		}
		if op%7 == 0 {
			return boom
		}
		return nil
	})
	attempted, ok, failed, skipped := res.accounting()
	dispatched := 0
	for i, s := range res.samples {
		if s.dispatched {
			dispatched++
			if s.op != sched[i].op {
				t.Fatalf("sample %d records op %d, want %d", i, s.op, sched[i].op)
			}
		}
	}
	if ok+failed != attempted || attempted+skipped != dispatched || int(observed.Load()) != dispatched {
		t.Fatalf("accounting does not balance: attempted %d = ok %d + failed %d, +skipped %d = dispatched %d, observed %d",
			attempted, ok, failed, skipped, dispatched, observed.Load())
	}
	if dispatched != 150 {
		t.Errorf("stop after 150 observed requests dispatched %d of %d", dispatched, len(sched))
	}
	if skipped == 0 || failed == 0 {
		t.Errorf("expected both skipped (%d) and failed (%d) requests", skipped, failed)
	}

	seq := runSequence(0, 30, func(_ int, op int) error {
		if op%3 == 0 {
			return boom
		}
		return nil
	})
	if a, o, f, s := seq.accounting(); a != 30 || o != 20 || f != 10 || s != 0 {
		t.Errorf("sequence accounting %d/%d/%d/%d, want 30/20/10/0", a, o, f, s)
	}
	var sent atomic.Int64
	closed := runClosedLoop([]int{0, 1}, 20*time.Millisecond, func() int { return 0 }, func(int, int) error {
		sent.Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	if a, o, _, _ := closed.accounting(); a != int(sent.Load()) || o != a || a == 0 {
		t.Errorf("closed loop recorded %d of %d requests sent", a, sent.Load())
	}
}

func TestCheckQueryResponse(t *testing.T) {
	type resp struct {
		Count   int        `json:"count"`
		Matches [][]string `json:"matches,omitempty"`
		Docs    []string   `json:"docs,omitempty"`
		Plan    string     `json:"plan"`
	}
	rows := [][]string{{`manager#1`, `name="a\"],[b"`}, {`manager#4`, `name="{c}"`}, {`manager#9`, `name=""`}}
	body, _ := json.Marshal(resp{Count: 3, Matches: rows, Docs: []string{"d,1", "d]2", "d3"}, Plan: `"matches":[[1]]`})
	if err := checkQueryResponse(body, 3); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	if err := checkQueryResponse(body, 4); err == nil {
		t.Error("wrong count accepted")
	}
	short, _ := json.Marshal(resp{Count: 3, Matches: rows[:2], Docs: []string{"a", "b", "c"}})
	if err := checkQueryResponse(short, 3); err == nil {
		t.Error("response with too few rows accepted")
	}
	empty, _ := json.Marshal(resp{Plan: "p"})
	if err := checkQueryResponse(empty, 0); err != nil {
		t.Errorf("empty response rejected: %v", err)
	}
}

// TestOracleTemplatesMatchTwigStack checks the template shortcut of the
// dblp oracle against a direct twig join of each predicated query.
func TestOracleTemplatesMatchTwigStack(t *testing.T) {
	w, _ := workloadByName("dblp-selective")
	xml, err := genDoc("dblp", 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newDocOracle(xml)
	if err != nil {
		t.Fatal(err)
	}
	pool := queryPool(w, 2)
	nonzero := 0
	for _, q := range pool[:60] {
		got, err := o.countQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := o.db.TwigStack(sjos.MustParsePattern(q.src))
		if err != nil {
			t.Fatal(err)
		}
		if got != len(ms) {
			t.Errorf("%s: oracle %d, twig join %d", q.src, got, len(ms))
		}
		if got > 0 {
			nonzero++
		}
	}
	if nonzero < 10 {
		t.Errorf("only %d of 60 queries match anything; the check is too weak", nonzero)
	}
}

func TestExpectedCount(t *testing.T) {
	for _, c := range []struct{ limit, oracle, want int }{{0, 5, 5}, {10, 5, 5}, {10, 50, 10}} {
		if got := expectedCount(query{limit: c.limit}, c.oracle); got != c.want {
			t.Errorf("limit %d, oracle %d: got %d, want %d", c.limit, c.oracle, got, c.want)
		}
	}
	if !strings.Contains(query{src: "//a[b=\"x y\"]", limit: 10}.path(), "limit=10") {
		t.Error("limit missing from the request path")
	}
}
