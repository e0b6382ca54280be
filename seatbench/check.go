package main

import (
	"fmt"
	"strconv"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/views"
)

// check is the output check of one trial. Every report, read and sample
// counts as attempted; each of these counts as failed:
//   - a position report the pipeline did not ingest (Stats().Messages
//     must equal the positions the inputs hold, warm-up included);
//   - a vessel whose final views entry or vessel:<mmsi> hash differs
//     from the last report sent for it;
//   - a sampled report never visible on the feed or in the views;
//   - a refused or non-200 read;
//   - a dead letter or an exhausted retry.
//
// A stalled consumer, a window that never quiesced or a generator that
// fell behind invalidates the window, and fails the run.
func check(res *trialResult, s *system, in *inputs, cfg runConfig) {
	fail := func(n int, format string, args ...any) {
		if n <= 0 {
			return
		}
		res.failed += n
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}
	positions := in.warmPos
	for i, w := range res.windows {
		fo, vo := w.feed, w.view
		feedMissing, viewMissing := int(fo.fresh.remaining.Load()), int(vo.fresh.remaining.Load())
		res.attempted += w.positions + len(in.windows[i].reads) +
			len(fo.fresh.lat) + feedMissing + len(vo.fresh.lat) + viewMissing
		positions += w.positions
		if w.qerr != nil {
			fail(1, "window %d: %v", i+1, w.qerr)
		}
		if cfg.spec.live {
			if behind, why := generatorBehind(w.gen); behind {
				fail(1, "window %d invalid: the generator fell behind (%s), so it measured the generator", i+1, why)
			}
		}
		fail(w.gen.errs, "window %d: %d lines failed to decode or produce", i+1, w.gen.errs)
		fail(feedMissing, "window %d: %d sampled reports never visible on the feed", i+1, feedMissing)
		fail(viewMissing, "window %d: %d sampled reports never visible in the views", i+1, viewMissing)
		fail(fo.bad, "window %d: %d undecodable feed frames", i+1, fo.bad)
		fail(w.reads.failed, "window %d: %d reads failed: %v", i+1, w.reads.failed, w.reads.errs)
	}

	st := s.p.Stats()
	if want := int64(positions); st.Messages != want {
		n := int(want - st.Messages)
		if n < 0 {
			n = -n
		}
		fail(n, "lost reports: pipeline ingested %d positions, inputs hold %d", st.Messages, want)
	}
	fail(int(st.DeadLetter), "%d dead letters", st.DeadLetter)
	fail(int(st.RetryExhausted), "%d exhausted retries", st.RetryExhausted)

	// Final state: every vessel's newest report, in the views snapshot
	// (refreshed now, after quiescence) and in its kvstore hash.
	s.views.Refresh()
	items := map[ais.MMSI]views.VesselItem{}
	for _, it := range s.views.Vessels().Items {
		items[it.MMSI] = it
	}
	badViews, badStore := 0, 0
	var example string
	for m, r := range lastReports(in) {
		if it, ok := items[m]; !ok || it.TS != r.Timestamp.UnixNano() || it.Lat != r.Lat || it.Lon != r.Lon {
			badViews++
			if example == "" {
				example = "views entry of " + m.String()
			}
		}
		h, err := s.store.HGetAll("vessel:" + m.String())
		if err != nil || h["ts"] != r.Timestamp.UTC().Format(time.RFC3339) ||
			h["lat"] != strconv.FormatFloat(r.Lat, 'f', 5, 64) || h["lon"] != strconv.FormatFloat(r.Lon, 'f', 5, 64) {
			badStore++
			if example == "" {
				example = "kvstore hash of " + m.String()
			}
		}
	}
	fail(badViews+badStore, "final state differs from the last report sent: %d views entries, %d kvstore hashes (first: %s)", badViews, badStore, example)

	res.forecasts, res.eventsLogged = st.Forecasts, st.Events
}

// lastReports returns each vessel's newest position report across the
// warm-up and the window, as the inputs hold them.
func lastReports(in *inputs) map[ais.MMSI]ais.PositionReport {
	last := map[ais.MMSI]ais.PositionReport{}
	for _, m := range in.warm {
		if r, ok := m.(ais.PositionReport); ok {
			last[r.MMSI] = r
		}
	}
	for _, w := range in.windows {
		for _, wl := range w.lines {
			if wl.pos {
				last[wl.report.MMSI] = wl.report
			}
		}
	}
	return last
}

// Generator validity: the open loop must keep to its schedule, or the
// run measured the generator instead of the system.
const (
	maxLatenessP99 = 100 * time.Millisecond
	maxLastLate    = 250 * time.Millisecond
)

func generatorBehind(gen genResult) (bool, string) {
	if len(gen.lateness) == 0 {
		return false, ""
	}
	p99 := percentile(gen.lateness, 99)
	lastLate := gen.lateness[len(gen.lateness)-1]
	switch {
	case p99 > ms(maxLatenessP99):
		return true, fmt.Sprintf("lateness p99 %.1f ms > %v", p99, maxLatenessP99)
	case lastLate > ms(maxLastLate):
		return true, fmt.Sprintf("last report sent %.1f ms late > %v", lastLate, maxLastLate)
	}
	return false, ""
}
