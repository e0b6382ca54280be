package main

import (
	"reflect"
	"strings"
	"time"
)

// layerAcc holds per-layer raw numbers: one traced trial's, or the sum
// of several (see merge). Fields named *Max merge by maximum, other
// numbers add up and lists concatenate. It crosses the process boundary
// between a trial and the run as JSON.
type layerAcc struct {
	Reports                                   float64
	Decode, Produce, Forecast                 []float64 // span durations, us
	ForecastOK                                float64
	PollRecs, Polls, IngestNs, IngestN        float64
	PollBlockedNs, WindowNs                   float64
	ProcDelta, Msgs, Forecasts                float64
	VPCount, VPSum                            float64
	CollCount, CollSum, CollCand, CollChecked float64
	ProxCount, ProxSum, ProxCand              float64
	Events, CkptSaves                         float64
	Published, Conflated, Dropped             float64
	Allocs, AllocBytes, GCCPU, TotalCPU       float64
	DeadLetters, RetryExhausted               float64
	LagMax, QueueMax, HeapMax                 float64
	LiveActors, CollTracked, StoreKeys        []float64
	VPP99, CollP99, RefreshMean, RefreshP99   []float64
	SnapMB, EpochAges, Lateness               []float64
	Service                                   [nReadKinds][]float64
}

// newLayerAcc reads one traced window: its spans, and the system's
// public snapshots (Pipeline.Stats, Views.Stats, Hub.Snapshot, the actor
// system and broker lag) differenced over the timed window. Latency
// percentiles the system keeps cumulatively (vessel processing,
// detector updates, view refreshes) are read at the window's end and
// include the warm-up.
func newLayerAcc(w *windowResult) layerAcc {
	ls := w.layer
	b, a := ls.before, ls.after
	acc := layerAcc{Reports: float64(w.positions)}
	var busy float64 // ns the consumers spent in ingest batches in the window
	for _, s := range ls.spans {
		d := float64(s.end-s.start) / 1e3
		switch s.kind {
		case spDecode:
			acc.Decode = append(acc.Decode, d)
		case spProduce:
			acc.Produce = append(acc.Produce, d)
		case spForecast:
			acc.Forecast = append(acc.Forecast, d)
			acc.ForecastOK += float64(s.n)
		case spPoll:
			if s.n > 0 {
				acc.Polls++
				acc.PollRecs += float64(s.n)
			}
		case spIngest:
			acc.IngestNs += float64(s.end - s.start)
			acc.IngestN += float64(s.n)
			if lo, hi := max(s.start, ls.t0), min(s.end, ls.end); hi > lo {
				busy += float64(hi - lo)
			}
		}
	}
	// A consumer not inside an ingest batch is inside Poll (the loop
	// between them does nothing else). Poll spans cannot say this
	// themselves: the poll that blocks at the end of a window returns
	// only when its consumer closes, after tracing stopped.
	acc.WindowNs = float64(consumers) * float64(ls.end-ls.t0)
	acc.PollBlockedNs = max(acc.WindowNs-busy, 0)
	acc.ProcDelta = float64(ls.procAfter - ls.procBefore)
	acc.Msgs = float64(a.Messages - b.Messages)
	acc.Forecasts = float64(a.Forecasts - b.Forecasts)
	acc.VPCount = float64(a.Latency.Count - b.Latency.Count)
	acc.VPSum = sumOf(a.Latency.Count, a.Latency.Mean) - sumOf(b.Latency.Count, b.Latency.Mean)
	acc.VPP99 = []float64{us(a.Latency.P99)}
	cb, ca := b.CollisionDetection, a.CollisionDetection
	acc.CollCount = float64(ca.UpdateLatency.Count - cb.UpdateLatency.Count)
	acc.CollSum = sumOf(ca.UpdateLatency.Count, ca.UpdateLatency.Mean) - sumOf(cb.UpdateLatency.Count, cb.UpdateLatency.Mean)
	acc.CollCand = float64(ca.Candidates - cb.Candidates)
	acc.CollChecked = float64(ca.Checked - cb.Checked)
	acc.CollP99 = []float64{us(ca.UpdateLatency.P99)}
	acc.CollTracked = []float64{float64(ca.Tracked)}
	pb, pa := b.ProximityDetection, a.ProximityDetection
	acc.ProxCount = float64(pa.UpdateLatency.Count - pb.UpdateLatency.Count)
	acc.ProxSum = sumOf(pa.UpdateLatency.Count, pa.UpdateLatency.Mean) - sumOf(pb.UpdateLatency.Count, pb.UpdateLatency.Mean)
	acc.ProxCand = float64(pa.Candidates - pb.Candidates)
	acc.Events = float64(a.Events - b.Events)
	acc.CkptSaves = float64(a.CheckpointSaves - b.CheckpointSaves)
	acc.DeadLetters = float64(a.DeadLetter - b.DeadLetter)
	acc.RetryExhausted = float64(a.RetryExhausted)
	acc.Published = float64(ls.hubAfter.Published - ls.hubBefore.Published)
	acc.Conflated = float64(ls.hubAfter.Conflated - ls.hubBefore.Conflated)
	acc.Dropped = float64(ls.hubAfter.Dropped - ls.hubBefore.Dropped)
	acc.Allocs = float64(ls.rtAfter[0].Value.Uint64() - ls.rtBefore[0].Value.Uint64())
	acc.AllocBytes = float64(ls.rtAfter[1].Value.Uint64() - ls.rtBefore[1].Value.Uint64())
	acc.GCCPU = ls.rtAfter[2].Value.Float64() - ls.rtBefore[2].Value.Float64()
	acc.TotalCPU = ls.rtAfter[3].Value.Float64() - ls.rtBefore[3].Value.Float64()
	acc.LagMax, acc.QueueMax, acc.HeapMax = float64(ls.lagMax), float64(ls.queueMax), float64(ls.heapMax)
	acc.LiveActors = []float64{float64(ls.liveActors)}
	acc.StoreKeys = []float64{float64(ls.storeKeys)}
	acc.RefreshMean = []float64{ms(ls.views.RefreshMean)}
	acc.RefreshP99 = []float64{ms(ls.views.RefreshP99)}
	acc.SnapMB = []float64{float64(ls.views.SnapshotBytes) / (1 << 20)}
	acc.EpochAges = ls.epochAges
	acc.Lateness = w.gen.lateness
	acc.Service = w.reads.service
	return acc
}

// merge folds b into a.
func (a *layerAcc) merge(b layerAcc) {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		f, g := av.Field(i), bv.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			if strings.HasSuffix(av.Type().Field(i).Name, "Max") {
				f.SetFloat(max(f.Float(), g.Float()))
			} else {
				f.SetFloat(f.Float() + g.Float())
			}
		case reflect.Slice:
			f.Set(reflect.AppendSlice(f, g))
		case reflect.Array:
			for k := 0; k < f.Len(); k++ {
				f.Index(k).Set(reflect.AppendSlice(f.Index(k), g.Index(k)))
			}
		}
	}
}

// metrics derives the per-layer metrics. trainS is the S-VRF training
// time, overhead the traced trials' relative CPU cost per report.
func (a *layerAcc) metrics(trainS, overhead float64) metricSet {
	out := metricSet{
		{"ais.decode_us_per_line", "us", mean(a.Decode)},
		{"broker.produce_us_per_record", "us", mean(a.Produce)},
		{"broker.lag_max_records", "records", a.LagMax},
		{"broker.poll_batch_mean", "records", ratio(a.PollRecs, a.Polls)},
		{"broker.poll_blocked_frac", "ratio", ratio(a.PollBlockedNs, a.WindowNs)},
		{"pipeline.ingest_batch_us_per_record", "us", ratio(a.IngestNs/1e3, a.IngestN)},
		{"pipeline.vessel_process_us_mean", "us", ratio(a.VPSum/1e3, a.VPCount)},
		{"pipeline.vessel_process_us_p99", "us", median(a.VPP99)},
		{"pipeline.collision_fanout_per_forecast", "updates", ratio(a.CollCount, a.Forecasts)},
		{"pipeline.proximity_fanout_per_report", "updates", ratio(a.ProxCount, a.Msgs)},
		{"actor.msgs_per_report", "msgs", ratio(a.ProcDelta, a.Reports)},
		{"actor.queued_max", "msgs", a.QueueMax},
		{"actor.live_actors", "actors", median(a.LiveActors)},
		{"actor.dead_letters", "count", a.DeadLetters},
		{"svrf.forecast_us_mean", "us", mean(a.Forecast)},
		{"svrf.forecast_us_p99", "us", percentile(a.Forecast, 99)},
		{"svrf.forecast_ok_frac", "ratio", ratio(a.ForecastOK, float64(len(a.Forecast)))},
		{"svrf.train_s", "s", trainS},
		{"events.collision_update_us_mean", "us", ratio(a.CollSum/1e3, a.CollCount)},
		{"events.collision_update_us_p99", "us", median(a.CollP99)},
		{"events.collision_candidates_per_update", "pairs", ratio(a.CollCand, a.CollCount)},
		{"events.collision_checked_frac", "ratio", ratio(a.CollChecked, a.CollCand)},
		{"events.collision_tracked", "entries", median(a.CollTracked)},
		{"events.proximity_update_us_mean", "us", ratio(a.ProxSum/1e3, a.ProxCount)},
		{"events.proximity_candidates_per_update", "pairs", ratio(a.ProxCand, a.ProxCount)},
		{"events.emitted_per_kreport", "events", ratio(a.Events*1000, a.Msgs)},
		{"kvstore.keys", "keys", median(a.StoreKeys)},
		{"checkpoint.saves_per_kreport", "saves", ratio(a.CkptSaves*1000, a.Msgs)},
		{"retry.exhausted", "count", a.RetryExhausted},
		{"views.refresh_ms_mean", "ms", median(a.RefreshMean)},
		{"views.refresh_ms_p99", "ms", median(a.RefreshP99)},
		{"views.snapshot_mb", "MiB", median(a.SnapMB)},
		{"views.epoch_age_ms", "ms", mean(a.EpochAges)},
		{"feed.frames_per_report", "frames", ratio(a.Published, a.Msgs)},
		{"feed.conflated", "frames", a.Conflated},
		{"feed.dropped", "frames", a.Dropped},
	}
	for k := readKind(0); k < nReadKinds; k++ {
		out = append(out,
			metric{"api." + readNames[k] + "_p50_ms", "ms", percentile(a.Service[k], 50)},
			metric{"api." + readNames[k] + "_p99_ms", "ms", percentile(a.Service[k], 99)})
	}
	return append(out,
		metric{"go.allocs_per_report", "allocs", ratio(a.Allocs, a.Reports)},
		metric{"go.alloc_bytes_per_report", "bytes", ratio(a.AllocBytes, a.Reports)},
		metric{"go.gc_cpu_frac", "ratio", ratio(a.GCCPU, a.TotalCPU)},
		metric{"go.heap_peak_mb", "MiB", a.HeapMax / (1 << 20)},
		metric{"gen.lateness_p99_ms", "ms", percentile(a.Lateness, 99)},
		metric{"trace.overhead_frac", "ratio", overhead},
	)
}

func sumOf(count int64, mean time.Duration) float64 { return float64(count) * float64(mean) }

func us(d time.Duration) float64 { return float64(d) / 1e3 }
