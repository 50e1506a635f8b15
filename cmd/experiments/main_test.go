package main

import (
	"slices"
	"testing"

	"havoqgt/internal/harness"
)

// TestOrderNamesEveryRunner: an order entry with no runner stops `all` partway
// with exit 2, and a runner missing from order is reachable through neither
// `all` nor -list.
func TestOrderNamesEveryRunner(t *testing.T) {
	named := slices.Clone(order)
	slices.Sort(named)
	if len(slices.Compact(slices.Clone(named))) != len(named) {
		t.Errorf("order repeats an experiment: %v", order)
	}
	var have []string
	for name := range runners(harness.DefaultSizing()) {
		have = append(have, name)
	}
	slices.Sort(have)
	if !slices.Equal(named, have) {
		t.Errorf("order names %v, runners exist for %v", named, have)
	}
}
