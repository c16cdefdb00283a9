package db_test

import (
	"testing"

	"repro/internal/db"
	"repro/internal/testkit"
)

// TestHardwareModeDetectsDeadlocks: DefaultConfig keeps the paper's
// timeout-only rule, and the matrix's hardware engine clears it.
func TestHardwareModeDetectsDeadlocks(t *testing.T) {
	for name, c := range map[string]testkit.Cell{"fidelity": {}, "hardware": {Hardware: true}} {
		t.Run(name, func(t *testing.T) {
			d := db.Open(c.Config(t, db.DefaultConfig()))
			defer d.Close()
			if got := d.Config().TimeoutDeadlocks; got != !c.Hardware {
				t.Fatalf("TimeoutDeadlocks = %v, want %v", got, !c.Hardware)
			}
		})
	}
}
