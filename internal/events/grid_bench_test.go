package events

import (
	"fmt"
	"math"
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// BenchmarkDenseCellUpdate sweeps cell occupancy across the map-scan
// oracles and the grid fast paths. Proximity vessels are spread over a
// ~2.2 km fan-in disc (a res-9 cell plus its threshold margin);
// collision forecasts over a ~10 km disc (a res-7 cell plus margin)
// with 3-point kinematic tracks. Detectors are preloaded via Seed so
// the timed loop measures pure steady-state per-report cost.

const benchGolden = 137.50776405003785 // golden angle, degrees

func benchDiscPoint(center geo.Point, i, n int, radius float64) geo.Point {
	ang := math.Mod(float64(i)*benchGolden, 360)
	r := radius * math.Sqrt(float64(i+1)/float64(n))
	return geo.Destination(center, ang, r)
}

func benchProxPoints(occ int) []geo.Point {
	pts := make([]geo.Point, occ)
	for i := range pts {
		pts[i] = benchDiscPoint(geo.Point{Lat: 1.2, Lon: 103.8}, i, occ, 2200)
	}
	return pts
}

func benchForecasts(occ int) []Forecast {
	fcs := make([]Forecast, occ)
	for i := range fcs {
		pos := benchDiscPoint(geo.Point{Lat: 1.2, Lon: 103.8}, i, occ, 10000)
		cog := math.Mod(float64(i)*benchGolden*2, 360)
		fcs[i] = Forecast{MMSI: ais.MMSI(800000000 + i), Points: []ForecastPoint{
			{Pos: pos, At: t0},
			{Pos: geo.DeadReckon(pos, 12, cog, 120), At: t0.Add(2 * time.Minute)},
			{Pos: geo.DeadReckon(pos, 12, cog, 240), At: t0.Add(4 * time.Minute)},
		}}
	}
	return fcs
}

func BenchmarkDenseCellUpdate(b *testing.B) {
	for _, occ := range []int{10, 100, 1000, 5000} {
		occ := occ
		pts := benchProxPoints(occ)
		fcs := benchForecasts(occ)

		b.Run(fmt.Sprintf("proximity/scan/occ=%d", occ), func(b *testing.B) {
			p := NewProximityDetector(DefaultProximityConfig())
			for i := 0; i < occ; i++ {
				p.Seed(ais.MMSI(800000000+i), pts[i], t0)
			}
			at := t0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				at = at.Add(time.Millisecond)
				p.Update(ais.MMSI(800000000+n%occ), pts[n%occ], at)
			}
		})
		b.Run(fmt.Sprintf("proximity/grid/occ=%d", occ), func(b *testing.B) {
			g := NewGridProximityDetector(DefaultProximityConfig())
			for i := 0; i < occ; i++ {
				g.Seed(ais.MMSI(800000000+i), pts[i], t0)
			}
			at := t0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				at = at.Add(time.Millisecond)
				g.Update(ais.MMSI(800000000+n%occ), pts[n%occ], at)
			}
		})
		b.Run(fmt.Sprintf("collision/scan/occ=%d", occ), func(b *testing.B) {
			if occ >= 5000 {
				b.Skip("quadratic map-scan oracle is impractical at this occupancy")
			}
			d := NewDetector(DefaultCollisionConfig(), 10*time.Minute)
			for i := 0; i < occ; i++ {
				d.Seed(fcs[i], t0)
			}
			now := t0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				now = now.Add(time.Millisecond)
				d.Update(fcs[n%occ], now)
			}
		})
		b.Run(fmt.Sprintf("collision/grid/occ=%d", occ), func(b *testing.B) {
			// Tracks are sampled outside the timed loop (the vessel
			// actor's job; see BenchmarkNewTrack), so this times the
			// detector alone.
			tracks := make([]*Track, occ)
			for i := range tracks {
				tracks[i] = NewTrack(fcs[i])
			}
			d := NewGridDetector(DefaultCollisionConfig(), 10*time.Minute)
			for i := 0; i < occ; i++ {
				d.Seed(tracks[i], t0)
			}
			now := t0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				now = now.Add(time.Millisecond)
				d.Update(tracks[n%occ], now)
			}
		})
	}
}

// BenchmarkNewTrack times the once-per-forecast sampling of a paper-shaped
// forecast (7 points, 30 minutes: 121 ticks) that every collision
// detector of the fan-out then shares.
func BenchmarkNewTrack(b *testing.B) {
	f := lineForecast(1, geo.Point{Lat: 37.5, Lon: 24.5}, 45, 12, t0.Add(7*time.Second))
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		NewTrack(f)
	}
}
