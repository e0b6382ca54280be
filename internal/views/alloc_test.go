package views

import (
	"io"
	"testing"

	"seatwin/internal/geo"
)

// TestSnapshotReadZeroAlloc is the read path's allocation gate: serving
// /api/vessels from a 2,000-vessel snapshot at the default limit, with
// and without a bounding box, allocates nothing.
func TestSnapshotReadZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	v := manual(t, Config{})
	populate(t, v, 2000)
	snap := v.Vessels()
	box := geo.BBox{MinLat: 35, MinLon: 22.5, MaxLat: 36, MaxLon: 24}
	for _, tc := range []struct {
		name string
		box  *geo.BBox
	}{{"all", nil}, {"bbox", &box}} {
		var err error
		allocs := testing.AllocsPerRun(500, func() {
			_, err = snap.WriteJSON(io.Discard, v.cfg.DefaultLimit, tc.box)
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s: snapshot read allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
}
