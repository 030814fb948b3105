package main

import (
	"strings"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		exps string
		want []string
	}{
		{"all", nil},
		{"table4,fig10", []string{"table4", "fig10"}},
		{"fig2, complexity", []string{"fig2", "complexity"}},
	} {
		list, err := validateFlags(tc.exps, 4, time.Minute)
		if err != nil {
			t.Errorf("-exp %s rejected: %v", tc.exps, err)
			continue
		}
		want := tc.want
		if want == nil {
			for _, e := range experimentTable {
				want = append(want, e.name)
			}
		}
		var got []string
		for _, e := range list {
			got = append(got, e.name)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("-exp %s selected %v, want %v", tc.exps, got, want)
		}
	}

	for _, tc := range []struct {
		name    string
		exps    string
		workers int
		timeout time.Duration
		wantSub string
	}{
		{"negative workers", "all", -1, 0, "-workers"},
		{"negative timeout", "all", 0, -time.Second, "-timeout"},
		{"unknown name after a known one", "fig2,speedup", 0, 0, `unknown experiment "speedup"`},
		{"deleted evalbench", "evalbench", 0, 0, `unknown experiment "evalbench"`},
		{"deleted serve", "serve", 0, 0, `unknown experiment "serve"`},
		{"empty name", "fig2,", 0, 0, `unknown experiment ""`},
	} {
		_, err := validateFlags(tc.exps, tc.workers, tc.timeout)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantSub)
		}
	}

	// The error names every accepted experiment.
	_, err := validateFlags("speedup", 0, 0)
	for _, name := range []string{"all", "fig2", "overload", "fig10"} {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error %v does not list %q", err, name)
		}
	}
}
