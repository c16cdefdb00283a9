package harness

import (
	"reflect"
	"testing"

	"repro/internal/db"
	"repro/internal/testkit"
	"repro/internal/workload"
)

// TestHardwarePresetMatchesMatrix: the -mode hardware preset and the
// hardware engine of the test matrix configure the same thing, so the
// suites test what the commands run.
func TestHardwarePresetMatchesMatrix(t *testing.T) {
	p, cfg := workload.DefaultParams(), db.DefaultConfig()
	ApplyHardware(&p, &cfg)
	cell := testkit.Cell{Hardware: true}
	if want := cell.Params(workload.DefaultParams()); p != want {
		t.Errorf("params: preset %+v, matrix %+v", p, want)
	}
	if want := cell.Config(t, db.DefaultConfig()); !reflect.DeepEqual(cfg, want) {
		t.Errorf("config: preset %+v, matrix %+v", cfg, want)
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"": Fidelity, "fidelity": Fidelity, "HW": Hardware, " Hardware ": Hardware} {
		if got, err := ParseMode(in); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseMode("turbo"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}
