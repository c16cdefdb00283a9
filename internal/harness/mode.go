package harness

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/db"
	"repro/internal/hwmode"
	"repro/internal/workload"
)

// Every bench harness in this package emits dual trajectories: one run
// in paper-fidelity mode (capacity-1 CPU token, single-mutex WAL
// append, plain RWMutex latching — the configuration the paper's
// uniprocessor shapes are valid in) and one in hardware mode (token
// bypassed, WAL group-append ring, reader-sharded latching, full
// GOMAXPROCS). Each trajectory carries a BenchEnv stamp so a report
// number can never be read without knowing which machine model produced
// it — a migration-phase p99 measured behind one CPU token, for
// example, says nothing about the same cell on every core.

// BenchEnv stamps one bench trajectory with the execution mode and the
// knobs that follow from it.
type BenchEnv struct {
	Mode         string `json:"mode"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	CPUTokens    int    `json:"cpu_tokens"`
	GroupCommit  bool   `json:"group_commit"`
	ReaderShards int    `json:"reader_shards"`
}

// applyMode rewrites the workload parameters and database configuration
// for one trajectory of a dual-mode bench and returns the matching
// stamp. Either pointer may be nil when the bench has no workload (or
// no database) to configure.
func applyMode(m hwmode.Mode, p *workload.Params, cfg *db.Config) BenchEnv {
	env := BenchEnv{
		Mode:       string(m),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	switch m {
	case hwmode.Hardware:
		env.CPUTokens = 0
		env.GroupCommit = true
		env.ReaderShards = hwmode.ReaderShards()
	default:
		env.CPUTokens = 1
		env.GroupCommit = false
		env.ReaderShards = 1
	}
	if p != nil {
		p.CPUTokens = env.CPUTokens
	}
	if cfg != nil {
		cfg.GroupCommit = env.GroupCommit
		cfg.ReaderShards = env.ReaderShards
	}
	return env
}

// ParseModes maps a -mode flag value to the trajectory list: "fidelity"
// or "hardware" select one, "both" (and "") selects both in fidelity-
// first order.
func ParseModes(s string) ([]hwmode.Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "both":
		return []hwmode.Mode{hwmode.Fidelity, hwmode.Hardware}, nil
	}
	m, err := hwmode.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("-mode: %w (or \"both\")", err)
	}
	return []hwmode.Mode{m}, nil
}

// modes returns the Scale's trajectory list, defaulting to both.
func (sc Scale) modes() []hwmode.Mode {
	if len(sc.Modes) == 0 {
		return []hwmode.Mode{hwmode.Fidelity, hwmode.Hardware}
	}
	return sc.Modes
}
