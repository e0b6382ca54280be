package events

import (
	"math"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/geo"
)

// collBinMeters sizes the collision micro-grid bins. Forecast bounding
// circles span a few kilometers (30 minutes of vessel motion), so
// 15 km bins keep each slot registered in a handful of bins while still
// splitting a res-7 collision cell's neighbourhood into enough bins to
// prune far-apart traffic.
const collBinMeters = 15000.0

// GridDetector is the collision actors' detector, the fast-path
// replacement for a map scan over the cell's forecasts (kept in
// oracle_test.go as its parity oracle). Semantics are identical; the
// cost model is not:
//
//   - Each forecast arrives as a Track, interpolated ONCE (by NewTrack)
//     onto the epoch-aligned checkStep tick grid (see collision.go) and
//     shared read-only by every detector it fans out to. Pair checks
//     never call interpAt: they are straight sweeps over two
//     precomputed arrays using the batch distance kernel
//     geo.FastDistancesInto.
//   - Each track carries a bounding circle (centroid + radius over the
//     raw forecast points); Update probes a micro-grid of those
//     circles and prunes candidates by circle overlap before the exact
//     (oracle-identical) raw-point prefilter and tick sweep run.
//   - Staleness expiry runs off a time-ordered ring instead of the
//     oracle's full-map scan on every insert; the oracle's eviction
//     cutoff is still applied inline to probed candidates, which keeps
//     emitted events identical regardless of when the ring physically
//     frees a slot.
//
// The tick-sweep fast path requires TemporalThreshold to be a whole
// number of checkSteps (the default 2 minutes is); otherwise pair
// checks fall back to CheckPair after the circle prune. The detector is
// not safe for concurrent use; each collision actor owns one.
type GridDetector struct {
	cfg      CollisionConfig
	expireNs int64

	// fastPath: the ±TemporalThreshold slide lands exactly on tick
	// boundaries, so precomputed samples serve every pair check.
	fastPath   bool
	slideTicks int64
	// pruneMargin is the circle-overlap slack: the oracle's prefilter
	// accepts a pair only if some raw-point distance is at most
	// threshold+prefilterMargin, which bounds the centroid distance by
	// radiusA+radiusB+threshold+prefilterMargin up to FastDistance's
	// non-metricity — absorbed by the generous 25%+1km slack, so the
	// prune never rejects a pair the oracle would accept.
	pruneMargin float64

	originSet  bool
	refLat     float64
	refLon     float64
	invLatStep float64
	invLonStep float64

	slots []collSlot
	free  []int32
	index map[ais.MMSI]int32
	bins  map[binKey][]int32

	ring     evictRing
	probeSeq uint64

	// Reused hot-path scratch.
	out         []Event
	distScratch []float64

	stats DetectorStats
}

// collSlot is one live forecast: a reference to its shared track and
// its registration rectangle in this detector's micro-grid.
type collSlot struct {
	mmsi    ais.MMSI
	gen     uint32
	live    bool
	stampNs int64

	track *Track

	// Registration rectangle (inclusive bin ranges; bx0 > bx1 when the
	// slot is not registered) and the slot's index inside each bin's
	// member slice, in (by outer, bx inner) order, for O(1) removal.
	bx0, bx1, by0, by1 int32
	binPos             []int32

	probeSeq uint64
}

// Track is a forecast prepared for collision detection: its bounding
// circle (centroid and radius over the raw points) and its positions on
// every epoch-aligned tick the forecast spans. Tracks are immutable once
// built, so one Track serves every collision detector a forecast fans
// out to, from any goroutine.
type Track struct {
	f        Forecast
	centroid geo.Point
	radius   float64

	firstTick int64
	lastTick  int64
	samples   []geo.Point
}

// NewTrack samples the forecast once. The Track keeps f.Points without
// copying them; the caller must not modify them afterwards.
func NewTrack(f Forecast) *Track {
	t := &Track{f: f, lastTick: -1}
	if len(f.Points) == 0 {
		return t
	}
	var sumLat, sumLon float64
	for _, p := range f.Points {
		sumLat += p.Pos.Lat
		sumLon += p.Pos.Lon
	}
	n := float64(len(f.Points))
	t.centroid = geo.Point{Lat: sumLat / n, Lon: sumLon / n}
	for _, p := range f.Points {
		if dd := geo.FastDistance(t.centroid, p.Pos); dd > t.radius {
			t.radius = dd
		}
	}
	t.firstTick, t.lastTick = tickRange(f)
	if t.lastTick >= t.firstTick {
		t.samples = appendTrackSamples(make([]geo.Point, 0, t.lastTick-t.firstTick+1), f, t.firstTick, t.lastTick)
	}
	return t
}

// Forecast returns the forecast the track was built from.
func (t *Track) Forecast() Forecast { return t.f }

// NewGridDetector creates a grid detector whose forecasts expire after
// the given duration (0 means 10 minutes).
func NewGridDetector(cfg CollisionConfig, expire time.Duration) *GridDetector {
	if expire <= 0 {
		expire = 10 * time.Minute
	}
	d := &GridDetector{
		cfg:      cfg,
		expireNs: int64(expire),
		index:    make(map[ais.MMSI]int32),
		bins:     make(map[binKey][]int32),
	}
	d.fastPath = cfg.TemporalThreshold >= 0 && cfg.TemporalThreshold%checkStep == 0
	d.slideTicks = int64(cfg.TemporalThreshold / checkStep)
	d.pruneMargin = (cfg.SpatialThresholdMeters+prefilterMarginMeters)*1.25 + 1000
	return d
}

func (d *GridDetector) setOrigin(pos geo.Point) {
	d.originSet = true
	d.refLat, d.refLon = pos.Lat, pos.Lon
	d.invLatStep = perLatMeters / collBinMeters
	lonStepDeg := collBinMeters / (perLatMeters * cosClamped(math.Abs(pos.Lat)+latSlackDeg))
	d.invLonStep = 1 / lonStepDeg
}

func (d *GridDetector) binX(lon float64) int32 {
	return int32(math.Floor((lon - d.refLon) * d.invLonStep))
}

func (d *GridDetector) binY(lat float64) int32 {
	return int32(math.Floor((lat - d.refLat) * d.invLatStep))
}

// binRect returns the inclusive bin rectangle covering the circle
// (center, radiusMeters). The meter→degree conversions use the largest
// |latitude| the circle touches, so the rectangle always covers the
// circle; spans are capped at maxSpan bins per axis around the center —
// the cap only binds for physically impossible tracks (hundreds of km
// in a 30-minute forecast).
func (d *GridDetector) binRect(center geo.Point, radiusMeters float64, maxSpan int32) (bx0, bx1, by0, by1 int32) {
	latRDeg := radiusMeters / perLatMeters
	lonRDeg := radiusMeters / (perLatMeters * cosClamped(math.Abs(center.Lat)+latRDeg+0.1))
	bx0, bx1 = d.binX(center.Lon-lonRDeg), d.binX(center.Lon+lonRDeg)
	by0, by1 = d.binY(center.Lat-latRDeg), d.binY(center.Lat+latRDeg)
	cx, cy := d.binX(center.Lon), d.binY(center.Lat)
	if bx1-bx0 >= maxSpan {
		bx0, bx1 = maxInt32(bx0, cx-maxSpan/2), minInt32(bx1, cx+maxSpan/2)
	}
	if by1-by0 >= maxSpan {
		by0, by1 = maxInt32(by0, cy-maxSpan/2), minInt32(by1, cy+maxSpan/2)
	}
	return bx0, bx1, by0, by1
}

func maxInt32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func minInt32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// Update inserts or refreshes a vessel's forecast and returns the
// collision events it triggers against the other live forecasts. The
// detector keeps a reference to t. The returned slice is reused by the
// next Update call.
func (d *GridDetector) Update(t *Track, now time.Time) []Event {
	d.out = d.out[:0]
	nowNs := now.UnixNano()
	d.evictStale(nowNs)

	si := d.insertSlot(t, nowNs)
	if len(t.f.Points) > 0 {
		d.probePairs(si, now, nowNs)
	}
	d.commitSlot(si, t.f.MMSI, nowNs)
	return d.out
}

// Seed inserts or refreshes a forecast without running detection — the
// bulk-preload path of benchmarks and tests.
func (d *GridDetector) Seed(t *Track, now time.Time) {
	nowNs := now.UnixNano()
	si := d.insertSlot(t, nowNs)
	d.commitSlot(si, t.f.MMSI, nowNs)
}

// insertSlot drops the vessel's previous forecast (the oracle never
// compares a vessel against itself) and fills a fresh slot, not yet
// registered in the micro-grid.
func (d *GridDetector) insertSlot(t *Track, nowNs int64) int32 {
	if si, ok := d.index[t.f.MMSI]; ok {
		d.freeSlot(si)
	}
	si := d.allocSlot()
	d.fillSlot(si, t, nowNs)
	return si
}

// commitSlot makes the filled slot visible: index entry, micro-grid
// registration and eviction-ring arming.
func (d *GridDetector) commitSlot(si int32, mmsi ais.MMSI, nowNs int64) {
	d.index[mmsi] = si
	d.registerSlot(si)
	d.ring.push(evictRec{slot: si, gen: d.slots[si].gen, atNs: nowNs})
}

// fillSlot points the slot at the track and computes its registration
// rectangle, the only per-detector part: bins are relative to this
// detector's origin.
func (d *GridDetector) fillSlot(si int32, t *Track, nowNs int64) {
	s := &d.slots[si]
	s.mmsi = t.f.MMSI
	s.stampNs = nowNs
	s.live = true
	s.track = t
	s.binPos = s.binPos[:0]
	s.bx0, s.bx1, s.by0, s.by1 = 0, -1, 0, -1
	if len(t.f.Points) == 0 {
		// Empty forecasts are registered nowhere and can never pair
		// (the oracle's CheckPair bails on them too).
		return
	}
	if !d.originSet {
		d.setOrigin(t.f.Points[0].Pos)
	}
	s.bx0, s.bx1, s.by0, s.by1 = d.binRect(t.centroid, t.radius, 64)
}

// appendTrackSamples interpolates the forecast at every tick in
// [first, last]. It replicates interpAt exactly — same segment choice,
// same degenerate-span and zero-distance branches, same
// fraction-of-span arithmetic — but hoists the per-segment great-circle
// setup (Haversine distance, initial bearing and the start's and
// bearing's sin/cos in a geo.GreatCircle) out of the tick loop, so each
// tick pays only the distance-dependent trigonometry of one
// GreatCircle.At. The parity tests compare the results against
// interpAt for bitwise equality.
func appendTrackSamples(dst []geo.Point, f Forecast, first, last int64) []geo.Point {
	pts := f.Points
	i := 1
	segSet := false
	var dSeg, span float64
	var seg geo.GreatCircle
	for k := first; k <= last; k++ {
		t := tickTime(k)
		for i < len(pts) && t.After(pts[i].At) {
			i++
			segSet = false
		}
		if i >= len(pts) {
			// Unreachable while last ≤ the forecast's end tick; kept as
			// a safe clamp.
			dst = append(dst, pts[len(pts)-1].Pos)
			continue
		}
		if !segSet {
			segSet = true
			span = pts[i].At.Sub(pts[i-1].At).Seconds()
			if span > 0 {
				dSeg = geo.Haversine(pts[i-1].Pos, pts[i].Pos)
				seg = geo.NewGreatCircle(pts[i-1].Pos, geo.InitialBearing(pts[i-1].Pos, pts[i].Pos))
			}
		}
		if span <= 0 {
			dst = append(dst, pts[i].Pos)
			continue
		}
		if dSeg == 0 {
			// geo.Interpolate's zero-distance branch.
			dst = append(dst, pts[i-1].Pos)
			continue
		}
		fr := t.Sub(pts[i-1].At).Seconds() / span
		dst = append(dst, seg.At(dSeg*fr))
	}
	return dst
}

// probePairs runs the incoming forecast against every candidate slot in
// the bins its expanded bounding circle touches, emitting events into
// d.out.
func (d *GridDetector) probePairs(si int32, now time.Time, nowNs int64) {
	a := &d.slots[si]
	ta := a.track
	d.probeSeq++
	seq := d.probeSeq

	bx0, bx1, by0, by1 := d.binRect(ta.centroid, ta.radius+d.pruneMargin, 128)
	for by := by0; by <= by1; by++ {
		for bx := bx0; bx <= bx1; bx++ {
			for _, ci := range d.bins[makeBinKey(bx, by)] {
				c := &d.slots[ci]
				if c.probeSeq == seq || c.mmsi == a.mmsi {
					continue
				}
				c.probeSeq = seq
				// The oracle evicts anything past expire before
				// comparing; skip those inline (the ring frees them
				// shortly) so eviction timing never changes events.
				if nowNs-c.stampNs > d.expireNs {
					continue
				}
				d.stats.Candidates++
				tc := c.track
				if geo.FastDistance(ta.centroid, tc.centroid) > ta.radius+tc.radius+d.pruneMargin {
					continue
				}
				if d.fastPath {
					// Exact oracle prefilter: minimum raw-point
					// distance, same iteration order, same cutoff.
					minRaw := 1e18
					for _, pa := range ta.f.Points {
						for _, pb := range tc.f.Points {
							if dd := geo.FastDistance(pa.Pos, pb.Pos); dd < minRaw {
								minRaw = dd
							}
						}
					}
					if minRaw > d.cfg.SpatialThresholdMeters+prefilterMarginMeters {
						continue
					}
					d.stats.Checked++
					if e, ok := d.sweepPair(ta, tc); ok {
						e.DetectedAt = now
						d.stats.Emitted++
						d.out = append(d.out, e)
					}
				} else {
					// Compatibility path for non-tick-aligned temporal
					// thresholds: CheckPair runs its own prefilter.
					d.stats.Checked++
					if e, ok := CheckPair(ta.f, tc.f, d.cfg); ok {
						e.DetectedAt = now
						d.stats.Emitted++
						d.out = append(d.out, e)
					}
				}
			}
		}
	}
}

// sweepPair is the precomputed-track pair check: for each of A's ticks
// it measures the distance to B's samples inside the ±TemporalThreshold
// window with the batch kernel and keeps the closest approach. It
// reproduces CheckPair's tick/slide iteration order and strict-less
// best update exactly, so the winning (distance, time, position) are
// bitwise those of the oracle.
func (d *GridDetector) sweepPair(a, b *Track) (Event, bool) {
	best := Event{Kind: KindCollisionForecast, A: a.f.MMSI, B: b.f.MMSI, Meters: d.cfg.SpatialThresholdMeters}
	found := false
	if a.lastTick < a.firstTick || b.lastTick < b.firstTick {
		return Event{}, false
	}
	m := d.slideTicks
	for k := a.firstTick; k <= a.lastTick; k++ {
		pa := a.samples[k-a.firstTick]
		lo, hi := k-m, k+m
		if lo < b.firstTick {
			lo = b.firstTick
		}
		if hi > b.lastTick {
			hi = b.lastTick
		}
		if lo > hi {
			continue
		}
		window := b.samples[lo-b.firstTick : hi-b.firstTick+1]
		if cap(d.distScratch) < len(window) {
			d.distScratch = make([]float64, len(window))
		}
		scratch := d.distScratch[:len(window)]
		geo.FastDistancesInto(scratch, pa, window)
		for j, dist := range scratch {
			if dist >= best.Meters {
				continue
			}
			dtTicks := lo + int64(j) - k
			best.Meters = dist
			best.Pos = geo.Midpoint(pa, window[j])
			best.At = tickTime(k).Add(time.Duration(dtTicks*checkStepNanos) / 2)
			found = true
		}
	}
	if !found {
		return Event{}, false
	}
	return best, true
}

// evictStale pops expired ring records. Refreshing a forecast frees the
// old slot and allocates a fresh one (bumping the generation), so stale
// records are simply skipped — no re-arming needed.
func (d *GridDetector) evictStale(nowNs int64) {
	for d.ring.n > 0 {
		rec := d.ring.peek()
		if nowNs-rec.atNs <= d.expireNs {
			break
		}
		d.ring.pop()
		s := &d.slots[rec.slot]
		if !s.live || s.gen != rec.gen || s.stampNs != rec.atNs {
			continue
		}
		d.freeSlot(rec.slot)
		d.stats.Evicted++
	}
}

func (d *GridDetector) allocSlot() int32 {
	if n := len(d.free); n > 0 {
		si := d.free[n-1]
		d.free = d.free[:n-1]
		return si
	}
	d.slots = append(d.slots, collSlot{})
	return int32(len(d.slots) - 1)
}

// freeSlot unregisters the slot, drops its track reference and
// recycles it, keeping its binPos capacity for the next occupant.
func (d *GridDetector) freeSlot(si int32) {
	s := &d.slots[si]
	d.unregisterSlot(si)
	delete(d.index, s.mmsi)
	s.live = false
	s.track = nil
	s.gen++
	d.free = append(d.free, si)
}

// registerSlot adds the slot to every bin its registration rectangle
// covers, recording its index within each bin for O(1) removal.
func (d *GridDetector) registerSlot(si int32) {
	s := &d.slots[si]
	for by := s.by0; by <= s.by1; by++ {
		for bx := s.bx0; bx <= s.bx1; bx++ {
			k := makeBinKey(bx, by)
			ids := d.bins[k]
			s.binPos = append(s.binPos, int32(len(ids)))
			d.bins[k] = append(ids, si)
		}
	}
}

// unregisterSlot swap-removes the slot from each of its bins, fixing up
// the moved slot's recorded index via its rectangle arithmetic.
func (d *GridDetector) unregisterSlot(si int32) {
	s := &d.slots[si]
	if s.bx0 > s.bx1 {
		return
	}
	pos := 0
	for by := s.by0; by <= s.by1; by++ {
		for bx := s.bx0; bx <= s.bx1; bx++ {
			k := makeBinKey(bx, by)
			ids := d.bins[k]
			i := s.binPos[pos]
			last := len(ids) - 1
			moved := ids[last]
			ids[i] = moved
			if moved != si {
				m := &d.slots[moved]
				w := m.bx1 - m.bx0 + 1
				m.binPos[(by-m.by0)*w+(bx-m.bx0)] = i
			}
			ids = ids[:last]
			if len(ids) == 0 {
				delete(d.bins, k)
			} else {
				d.bins[k] = ids
			}
			pos++
		}
	}
	s.bx0, s.bx1, s.by0, s.by1 = 0, -1, 0, -1
	s.binPos = s.binPos[:0]
}

// Size returns the number of live forecasts held.
func (d *GridDetector) Size() int { return len(d.index) }

// Stats returns the cumulative hot-path counters.
func (d *GridDetector) Stats() DetectorStats { return d.stats }
