package harness

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/reorg"
	"repro/internal/workload"
)

// tinyOIDModeConfig is a paired cell small enough for the unit-test
// budget while still migrating a real partition in both modes.
func tinyOIDModeConfig() OIDModeConfig {
	p := workload.DefaultParams()
	p.NumPartitions = 2
	p.ObjectsPerPartition = 64
	p.MPL = 4
	return OIDModeConfig{
		Params:         p,
		DB:             db.DefaultConfig(),
		Mode:           reorg.ModeIRA,
		ReorgPartition: 1,
		Window:         25 * time.Millisecond,
		Warmup:         50 * time.Millisecond,
		LeadWindows:    2,
		DrainWindows:   1,
		DerefReads:     2000,
		Verify:         true,
	}
}

// TestOIDModePairedReport runs the paired cells on a tiny fixture and
// checks the structural claims the report exists to make: the physical
// cell rewrites parents, the logical cell rewrites none while migrating
// the same partition, and both dereference microbenches produced a
// number.
func TestOIDModePairedReport(t *testing.T) {
	if testing.Short() {
		t.Skip("paired workload runs")
	}
	var buf bytes.Buffer
	cfg := tinyOIDModeConfig()
	env := applyMode(Fidelity, &cfg.Params, &cfg.DB)
	rep, err := runOIDMode(&buf, cfg, "test", env)
	if err != nil {
		t.Fatalf("runOIDMode: %v\n%s", err, buf.String())
	}
	if rep.Physical.Migrated == 0 || rep.Logical.Migrated == 0 {
		t.Fatalf("cells migrated %d/%d objects", rep.Physical.Migrated, rep.Logical.Migrated)
	}
	if rep.Physical.ParentsUpdated == 0 {
		t.Fatal("physical cell rewrote no parents")
	}
	if rep.Logical.ParentsUpdated != 0 {
		t.Fatalf("logical cell rewrote %d parents, want 0", rep.Logical.ParentsUpdated)
	}
	if rep.Physical.DerefNs <= 0 || rep.Logical.DerefNs <= 0 {
		t.Fatalf("dereference bench missing: phys %.0f, logical %.0f", rep.Physical.DerefNs, rep.Logical.DerefNs)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back OIDModeReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
}
