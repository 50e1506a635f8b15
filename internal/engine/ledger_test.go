package engine_test

import (
	"reflect"
	"testing"

	"havoqgt/internal/check"
	"havoqgt/internal/core"
	"havoqgt/internal/engine"
	"havoqgt/internal/rt"
)

// TestLedgerTablesMapEveryField publishes, on every rank, a core.Stats whose
// every counter, its Mailbox's included, holds a value no other counter
// holds on any rank, through the rank loop's tables, and checks each
// registry cell against check.LedgerMirrored's table, written independently:
// a row naming the wrong field or the wrong cell, or a published counter
// with no row, shows as a cell that does not hold its field's value.
func TestLedgerTablesMapEveryField(t *testing.T) {
	const p = 3
	stats := make([]core.Stats, p)
	next := uint64(1)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Uint64:
				f.SetUint(next)
				next++
			case reflect.Struct:
				fill(f)
			}
		}
	}
	for r := range stats {
		fill(reflect.ValueOf(&stats[r]).Elem())
	}
	m := rt.NewMachine(p)
	m.Run(func(r *rt.Rank) { engine.PublishLedgers(r, stats[r.Rank()], stats[r.Rank()].Mailbox) })
	if err := check.Error(check.LedgerMirrored(m.Obs(), stats)); err != nil {
		t.Error(err)
	}
}
