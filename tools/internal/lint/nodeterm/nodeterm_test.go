package nodeterm_test

import (
	"testing"

	"example.com/scar/tools/internal/lint/analysistest"
	"example.com/scar/tools/internal/lint/nodeterm"
)

func TestContractPackage(t *testing.T) {
	analysistest.Run(t, "testdata", nodeterm.Analyzer, "internal/core")
}

func TestNonContractPackage(t *testing.T) {
	analysistest.Run(t, "testdata", nodeterm.Analyzer, "plain")
}

func TestUnderContract(t *testing.T) {
	for path, want := range map[string]bool{
		"example.com/scar/internal/core":    true,
		"example.com/scar/internal/online":  true,
		"example.com/scar/internal/eval":    true,
		"example.com/scar/internal/core/x":  true,
		"internal/eval":                     true,
		"example.com/scar/internal/serve":   false,
		"example.com/scar/internal/corepkg": false,
		"example.com/scar":                  false,
	} {
		if got := nodeterm.UnderContract(path); got != want {
			t.Errorf("UnderContract(%q) = %v, want %v", path, got, want)
		}
	}
}
