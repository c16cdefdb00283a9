package harness

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/db"
	"repro/internal/workload"
)

// Mode names an execution mode. Fidelity is the paper's testbed: a
// capacity-1 CPU token, the single-mutex WAL append and timeout-only
// deadlocks, the configuration its uniprocessor shapes are valid in.
// Hardware adds the ApplyHardware preset to run as fast as the host
// allows.
type Mode string

// The two execution modes.
const (
	Fidelity Mode = "fidelity"
	Hardware Mode = "hardware"
)

// ParseMode maps a -mode flag value to a Mode; "" means Fidelity.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", string(Fidelity):
		return Fidelity, nil
	case string(Hardware), "hw":
		return Hardware, nil
	}
	return "", fmt.Errorf("unknown mode %q (fidelity or hardware)", s)
}

// ApplyHardware applies the hardware preset: the CPU token is bypassed,
// WAL appends go through the group-commit ring, and the lock manager
// detects deadlocks when a request queues. Either pointer may be nil.
func ApplyHardware(p *workload.Params, cfg *db.Config) {
	if p != nil {
		p.CPUTokens = 0
	}
	if cfg != nil {
		cfg.GroupCommit = true
		cfg.TimeoutDeadlocks = false
	}
}

// BenchEnv stamps one trajectory of a dual-mode bench (every bench here
// runs one per mode) with the execution mode and the knobs that follow
// from it, so a report number is never read without knowing which
// machine model produced it.
type BenchEnv struct {
	Mode        string `json:"mode"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	CPUTokens   int    `json:"cpu_tokens"`
	GroupCommit bool   `json:"group_commit"`
}

// applyMode configures a trajectory's workload parameters and database
// configuration, which start from their fidelity defaults, and returns
// its stamp. Either pointer may be nil.
func applyMode(m Mode, p *workload.Params, cfg *db.Config) BenchEnv {
	env := BenchEnv{Mode: string(m), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUTokens: 1}
	if m == Hardware {
		ApplyHardware(p, cfg)
		env.CPUTokens, env.GroupCommit = 0, true
	}
	return env
}

// ParseModes maps a -mode flag value to the trajectory list: "fidelity"
// or "hardware" select one, "both" (and "") selects both in fidelity-
// first order.
func ParseModes(s string) ([]Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "both":
		return []Mode{Fidelity, Hardware}, nil
	}
	m, err := ParseMode(s)
	if err != nil {
		return nil, fmt.Errorf("-mode: %w (or \"both\")", err)
	}
	return []Mode{m}, nil
}

// modes returns the Scale's trajectory list, defaulting to both.
func (sc Scale) modes() []Mode {
	if len(sc.Modes) == 0 {
		return []Mode{Fidelity, Hardware}
	}
	return sc.Modes
}
