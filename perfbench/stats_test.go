package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}} {
		if got, _ := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if v, ok := percentile(nil, 0.5); !math.IsNaN(v) || ok {
		t.Errorf("percentile(nil) = %v, %t; want NaN, false", v, ok)
	}
}

func TestTailRule(t *testing.T) {
	if got := minSamples(0.9); got != 100 {
		t.Errorf("minSamples(0.9) = %d, want 100", got)
	}
	if got := minSamples(0.5); got != 20 {
		t.Errorf("minSamples(0.5) = %d, want 20", got)
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, ok := percentile(seq(99), 0.9); ok {
		t.Errorf("p90 of 99 samples (%v) claims %d samples beyond it", v, minTail)
	}
	v, ok := percentile(seq(100), 0.9)
	if !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %t; want 90 with the tail rule met", v, ok)
	}
}

func TestSustainableRate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		rungs []rung
		want  float64
		err   bool
	}{
		{"interpolates the crossing", []rung{{10, 200, false}, {12, 400, false}, {14, 800, false}}, 12.5, false},
		{"stops at the first fitted crossing", []rung{{10, 300, false}, {11, 500.0001, false}, {12, 900, false}}, 11, false},
		{"a noisy dip is pooled", []rung{{10, 300, false}, {12, 560, false}, {14, 440, false}, {16, 900, false}}, 14, false},
		{"a growing backlog counts as twice the limit", []rung{{10, 250, false}, {12, 450, true}}, 10 + 2.0/3, false},
		{"first rung already fails", []rung{{10, 900, false}, {12, 1000, false}}, 0, true},
		{"no rung fails", []rung{{10, 100, false}, {12, 200, false}}, 0, true},
		{"rates must ascend", []rung{{10, 100, false}, {9, 900, false}}, 0, true},
		{"empty ladder", nil, 0, true},
	} {
		got, err := sustainableRate(tc.rungs, 500)
		if (err != nil) != tc.err {
			t.Errorf("%s: err = %v, want error %t", tc.name, err, tc.err)
			continue
		}
		if !tc.err && math.Abs(got-tc.want) > 1e-3 {
			t.Errorf("%s: rate = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestIsotonic(t *testing.T) {
	got := isotonic([]float64{1, 3, 2, 4, 0})
	want := []float64{1, 2.25, 2.25, 2.25, 2.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("isotonic = %v, want %v", got, want)
		}
	}
}

func TestBacklogGrowing(t *testing.T) {
	steady := []int{3, 4, 3, 5, 4, 3, 4, 5, 3, 4, 4, 3}
	if backlogGrowing(steady, 3) {
		t.Error("steady outstanding counts flagged as a growing backlog")
	}
	growing := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if !backlogGrowing(growing, 3) {
		t.Error("linearly growing outstanding counts not flagged")
	}
	if backlogGrowing([]int{1, 9}, 3) {
		t.Error("too few samples to judge flagged as growing")
	}
}

func TestLatenessAccounting(t *testing.T) {
	var l lateness
	base := time.Unix(1000, 0)
	// Ten sends: one early (counts as on time), eight on time, one 40 ms late.
	l.record(base, base.Add(-5*time.Millisecond))
	for i := 0; i < 8; i++ {
		l.record(base, base)
	}
	l.record(base, base.Add(40*time.Millisecond))
	if l.late[0] != 0 {
		t.Errorf("an early send counts %v ms late, want 0", l.late[0])
	}
	if got := l.p90(); got != 0 {
		t.Errorf("p90 lateness = %v, want 0 (only one of ten sends was late)", got)
	}
	l.record(base, base.Add(30*time.Millisecond))
	if got := l.p90(); got != 30 {
		t.Errorf("p90 lateness = %v, want 30 ms", got)
	}
}
