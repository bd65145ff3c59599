package experiments

import (
	"strings"
	"testing"
)

// TestFleetQPSShape runs figF1 at fast scale and checks, on the steady
// series of the full grid, the physics the figure exists to show: with
// offered load rising past each design's capacity knee, the open-loop P99
// must grow, and every point must have served queries.
func TestFleetQPSShape(t *testing.T) {
	opts := Fast()
	opts.Seed = 5
	opts.FleetClients = 2000
	ctx := NewContext(opts)
	res, err := runFleetQPS(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fig := res.(*Figure)
	if want := len(fleetScenarios) * 3; len(fig.Series) != want {
		t.Fatalf("want %d series (scenarios x {base, rebal, rebal+l4}), got %d", want, len(fig.Series))
	}
	for _, design := range []string{"base", "rebal", "rebal+l4"} {
		s := fig.Get("steady/" + design)
		if s == nil {
			t.Fatalf("no steady/%s series", design)
		}
		if len(s.X) != 5 {
			t.Fatalf("series %s has %d points, want 5", s.Name, len(s.X))
		}
		for i, y := range s.Y {
			if y <= 0 {
				t.Fatalf("series %s point %d: non-positive P99 %v", s.Name, i, y)
			}
		}
		if s.Y[len(s.Y)-1] <= s.Y[0] {
			t.Fatalf("series %s: overload P99 %.2fms not above light-load %.2fms",
				s.Name, s.Y[len(s.Y)-1], s.Y[0])
		}
	}
	if !strings.Contains(fig.Note, "2000 modeled users") {
		t.Fatalf("note does not reflect the client override: %q", fig.Note)
	}
}

// TestFleetCapacityShape runs figF2 at fast scale and checks the sizing
// logic: every answer is a swept fleet size (or 0 for unreachable), some
// SLO is reachable, and a looser SLO never needs a bigger fleet.
func TestFleetCapacityShape(t *testing.T) {
	opts := Fast()
	opts.Seed = 5
	opts.FleetClients = 2000
	ctx := NewContext(opts)
	res, err := runFleetCapacity(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fig := res.(*Figure)
	if len(fig.Series) != 3 {
		t.Fatalf("want 3 SLO series, got %d", len(fig.Series))
	}
	grid := map[float64]bool{0: true, 8: true, 12: true, 16: true, 24: true, 32: true, 48: true, 64: true}
	reachable := false
	for _, s := range fig.Series {
		if len(s.X) != 4 {
			t.Fatalf("series %s has %d traffic points, want 4", s.Name, len(s.X))
		}
		for _, y := range s.Y {
			if !grid[y] {
				t.Fatalf("series %s: %v is not a swept fleet size", s.Name, y)
			}
			if y > 0 {
				reachable = true
			}
		}
	}
	if !reachable {
		t.Fatal("no SLO reachable at any traffic level; sizing sweep is degenerate")
	}
	tight, loose := fig.Get("SLO 15ms"), fig.Get("SLO 30ms")
	for i := range tight.Y {
		if tight.Y[i] != 0 && loose.Y[i] != 0 && loose.Y[i] > tight.Y[i] {
			t.Fatalf("traffic %v: loose SLO needs %v leaves, tight only %v", tight.X[i], loose.Y[i], tight.Y[i])
		}
	}
}
