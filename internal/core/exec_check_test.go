package core

import (
	"context"
	"reflect"
	"testing"

	"sjos/internal/exec"
	"sjos/internal/pattern"
	"sjos/internal/storage"
	"sjos/internal/xmltree"
)

// checkPlansProduceReference optimizes pat with every method and verifies
// each chosen plan executes to the brute-force reference result, serially
// and partition-parallel, materialised and counted.
func checkPlansProduceReference(t *testing.T, doc *xmltree.Document, pat *pattern.Pattern, est *Estimator) {
	t.Helper()
	st, err := storage.BuildStore(doc, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := exec.ReferenceMatches(doc, pat)
	exec.SortCanonical(want)
	for _, m := range allMethods() {
		r, err := Optimize(context.Background(), pat, est, testModel(), m, nil)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := r.Plan.Validate(pat, true); err != nil {
			t.Fatalf("%v: invalid plan: %v", m, err)
		}
		// The physical ordering promise: the root's OrderedBy column
		// arrives sorted by document position.
		op, err := exec.Build(pat, r.Plan)
		if err != nil {
			t.Fatalf("%v: build: %v", m, err)
		}
		ctx := &exec.Context{Doc: doc, Store: st}
		raw, err := exec.Drain(ctx, op)
		if err != nil {
			t.Fatalf("%v: execution: %v", m, err)
		}
		if col, ok := op.Schema().Col(r.Plan.OrderedBy); ok {
			for i := 1; i < len(raw); i++ {
				if doc.Start(raw[i][col]) < doc.Start(raw[i-1][col]) {
					t.Fatalf("%v: output not ordered by node %d at row %d\n%s",
						m, r.Plan.OrderedBy, i, r.Plan.Format(pat))
				}
			}
		}
		got := exec.NormalizeAll(op.Schema(), pat.N(), raw)
		exec.SortCanonical(got)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: plan produced %d matches, reference %d\n%s",
					m, len(got), len(want), r.Plan.Format(pat))
			}
		}
		n, err := exec.RunCount(&exec.Context{Doc: doc, Store: st}, pat, r.Plan)
		if err != nil || n != len(want) {
			t.Fatalf("%v: count %d (%v), reference %d", m, n, err, len(want))
		}
		pe := &exec.ParallelExec{Workers: 2, Partitions: 3}
		par, err := pe.Run(context.Background(), &exec.Context{Doc: doc, Store: st}, pat, r.Plan)
		if err != nil {
			t.Fatalf("%v: parallel execution: %v", m, err)
		}
		exec.SortCanonical(par)
		if len(par) != len(want) || (len(want) != 0 && !reflect.DeepEqual(par, want)) {
			t.Fatalf("%v: parallel plan produced %d matches, reference %d", m, len(par), len(want))
		}
		pn, err := pe.RunCount(context.Background(), &exec.Context{Doc: doc, Store: st}, pat, r.Plan)
		if err != nil || pn != len(want) {
			t.Fatalf("%v: parallel count %d (%v), reference %d", m, pn, err, len(want))
		}
	}
}
