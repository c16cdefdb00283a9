package harness

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/reorg"
)

func TestTortureSingleRunMemory(t *testing.T) {
	res, err := RunTorture(TortureConfig{
		Seed:  7,
		Point: "reorg/parents-locked",
		Mode:  reorg.ModeIRA,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lives < 1 {
		t.Fatalf("lives = %d", res.Lives)
	}
}

func TestTortureSingleRunFileWAL(t *testing.T) {
	res, err := RunTorture(TortureConfig{
		Seed:    11,
		Point:   fault.WALCrash,
		Mode:    reorg.ModeIRA,
		MaxHit:  40,
		FileWAL: true,
		Dir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	crashed := false
	for _, r := range res.Rounds {
		crashed = crashed || r.Crashed
	}
	if !crashed {
		t.Log("no crash fired for this seed (armed hit beyond schedule); still a pass")
	}
}

// TestTortureSingleRunLogical crashes inside the relocate window — map
// swung to the new body, old slot not yet freed — and demands recovery
// plus §4.4 resume converge with zero parent rewrites to verify.
func TestTortureSingleRunLogical(t *testing.T) {
	res, err := RunTorture(TortureConfig{
		Seed:        13,
		Point:       fault.ReorgMapSet,
		Mode:        reorg.ModeIRA,
		MaxHit:      40,
		LogicalOIDs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lives < 1 {
		t.Fatalf("lives = %d", res.Lives)
	}
}

// TestTortureSingleRunStoreMove swaps the compaction fleet for
// cross-store partition moves and crashes between the evacuation and
// the source drop.
func TestTortureSingleRunStoreMove(t *testing.T) {
	res, err := RunTorture(TortureConfig{
		Seed:        5,
		Point:       fault.ReorgStoreMove,
		Mode:        reorg.ModeIRA,
		MaxHit:      3,
		LogicalOIDs: true,
		StoreMove:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lives < 1 {
		t.Fatalf("lives = %d", res.Lives)
	}
}

func TestTortureCrashDuringRecovery(t *testing.T) {
	res, err := RunTorture(TortureConfig{
		Seed:                3,
		Point:               "db/commit",
		Mode:                reorg.ModeIRA,
		MaxHit:              20,
		CrashDuringRecovery: true,
		Chaos:               true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

// TestTortureReplayLineRunsSameCell checks, for every cell of short
// sweeps, that the one-seed sweep its replay line describes builds the
// same TortureConfig (Dir aside) — with the default taxonomy and with a
// -points list, from a nonzero and a negative seed base.
func TestTortureReplayLineRunsSameCell(t *testing.T) {
	listed, err := SelectTorturePoints("segment/write,reorg/parents-locked")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []TortureSpec{
		{Seeds: 3 * len(DefaultTorturePoints()), SeedBase: 380},
		{Seeds: 12, SeedBase: -7, Points: listed},
	} {
		for n := 0; n < spec.Seeds; n++ {
			ran := spec.cell(spec.SeedBase+int64(n), "")
			line := SweepFailure{Seed: ran.Seed, Point: ran.Point, Points: spec.pointNames()}.ReplayLine()
			args := strings.Fields(strings.TrimSuffix(line[strings.Index(line, "(")+1:], ")"))
			replay := TortureSpec{}
			for i := 0; i+1 < len(args); i++ {
				switch args[i] {
				case "-seeds":
					replay.Seeds, _ = strconv.Atoi(args[i+1])
				case "-seedbase":
					replay.SeedBase, _ = strconv.ParseInt(args[i+1], 10, 64)
				case "-points":
					if replay.Points, err = SelectTorturePoints(args[i+1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if replay.Seeds != 1 {
				t.Fatalf("%s: replays %d seeds, want 1", line, replay.Seeds)
			}
			if got := replay.cell(replay.SeedBase, ""); got != ran {
				t.Fatalf("%s\nreplays %+v\nsweep ran %+v", line, got, ran)
			}
		}
	}
}
