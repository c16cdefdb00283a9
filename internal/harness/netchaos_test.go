package harness

import (
	"io"
	"testing"
	"time"
)

// TestNetChaosCell runs the socket-chaos cell at reduced scale: conn
// drops and stalls under live reorganization, then a drain mid-fleet.
func TestNetChaosCell(t *testing.T) {
	res, err := RunNetChaos(io.Discard, NetChaosConfig{
		Seed:                11,
		Partitions:          2,
		ObjectsPerPartition: 40,
		Counters:            4,
		MPL:                 4,
		Duration:            600 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunNetChaos: %v", err)
	}
	if !res.DrainStoppedFleet {
		t.Fatal("drain did not stop the active fleet")
	}
	if res.Firings == 0 || res.Commits == 0 {
		t.Fatalf("cell under-exercised: %+v", res)
	}
}
