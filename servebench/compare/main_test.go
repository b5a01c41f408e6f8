package main

import "testing"

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) and statistics.median give.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.9, 4.4}, 1.35, 3.1, 7.15},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{1, 2, 3}, 1, 2, 3},
	} {
		q1, med, q3 := quartiles(c.xs)
		if d := abs(q1-c.q1) + abs(med-c.med) + abs(q3-c.q3); d > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := func(x, y float64) bool { return x < y }
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}
	noisy := []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 100}
	wins := func(a, b []float64) int {
		n := 0
		for i := range a {
			if lower(b[i], a[i]) {
				n++
			}
		}
		return n
	}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{base, faster, "improved"},
		{base, slower, "worse"},
		{base, base, "unchanged"},
		{noisy, noisy, "unresolved"},
	} {
		if got := judge(c.a, c.b, 0.1, wins(c.a, c.b), lower); got != c.want {
			t.Errorf("judge = %s, want %s", got, c.want)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
