package main

import "testing"

// pairs builds n base values around 100 (spread ±1) and change values
// that beat their base in exactly wins pairs, by delta each.
func pairs(n, wins int, delta float64) (base, change []float64) {
	for i := 0; i < n; i++ {
		b := 100 + float64(i%3) - 1
		base = append(base, b)
		if i < wins {
			change = append(change, b-delta)
		} else {
			change = append(change, b+0.5)
		}
	}
	return base, change
}

func TestJudgeNineInTenRule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		wins  int
		delta float64
		want  verdict
	}{
		{"all ten win by far", 10, 10, 20, improved},
		{"nine of ten win", 10, 9, 20, improved},
		{"eight of ten win", 10, 8, 20, unchanged},
		{"wins smaller than the spread", 10, 10, 0.2, unchanged},
		{"too few pairs", 9, 9, 20, unresolved},
	} {
		base, change := pairs(tc.n, tc.wins, tc.delta)
		if got := judge(base, change, true, 0.1); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestJudgeHigherIsBetter(t *testing.T) {
	base, change := pairs(10, 10, 20)
	// For a higher-is-better metric the same numbers are a 20% drop.
	if got := judge(base, change, false, 0.1); got != regressed {
		t.Errorf("20%% lower throughput judged %s, want regressed", got)
	}
}

func TestJudgeRegressionAndUnresolved(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	worse := make([]float64, len(base))
	for i, b := range base {
		worse[i] = b * 1.2
	}
	if got := judge(base, worse, true, 0.1); got != regressed {
		t.Errorf("20%% slower with a tight spread judged %s, want regressed", got)
	}

	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	slightly := make([]float64, len(wide))
	for i, b := range wide {
		slightly[i] = b * 1.05
	}
	if got := judge(wide, slightly, true, 0.1); got != unresolved {
		t.Errorf("spread wider than the bound judged %s, want unresolved", got)
	}
	faster := make([]float64, len(wide))
	for i := range wide {
		faster[i] = 50 - float64(i)
	}
	if got := judge(wide, faster, true, 0.1); got != improved {
		t.Errorf("every change run beating every base run judged %s, want improved", got)
	}
}

func TestComparableRefusesDifferentHostsAndRunLengths(t *testing.T) {
	a := stamp{NumCPU: 2, GOMAXPROCS: 2, Seconds: 20}
	for _, b := range []stamp{
		{NumCPU: 8, GOMAXPROCS: 2, Seconds: 20},
		{NumCPU: 2, GOMAXPROCS: 8, Seconds: 20},
		{NumCPU: 2, GOMAXPROCS: 2, Seconds: 10},
	} {
		if comparable(a, b) == "" {
			t.Errorf("%+v and %+v judged comparable", a, b)
		}
	}
	if why := comparable(a, stamp{NumCPU: 2, GOMAXPROCS: 2, Seconds: 20, Seed: 9, Revision: "x"}); why != "" {
		t.Errorf("same host and run length refused: %s", why)
	}
}
