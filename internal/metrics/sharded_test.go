package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestShardedCounterMergesStripes(t *testing.T) {
	c := NewShardedCounter(8)
	var wg sync.WaitGroup
	const workers, per = 16, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(uint64(w*per+i), 1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestShardedCounterNegativeAndZeroShards(t *testing.T) {
	c := NewShardedCounter(0) // defaulted
	c.Inc(1, 5)
	c.Inc(2, -2)
	if got := c.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
}

func TestShardedAccumulatorDrain(t *testing.T) {
	a := NewShardedAccumulator(4)
	for i := 0; i < 100; i++ {
		a.Add(uint64(i), int64(i))
	}
	count, sum := a.Drain()
	if count != 100 || sum != 4950 {
		t.Fatalf("Drain = (%d, %d), want (100, 4950)", count, sum)
	}
	// A drained accumulator is empty.
	count, sum = a.Drain()
	if count != 0 || sum != 0 {
		t.Fatalf("second Drain = (%d, %d), want (0, 0)", count, sum)
	}
}

func TestShardedAccumulatorConcurrent(t *testing.T) {
	a := NewShardedAccumulator(8)
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	var drained struct {
		sync.Mutex
		count, sum int64
	}
	stop := make(chan struct{})
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for {
			c, s := a.Drain()
			drained.Lock()
			drained.count += c
			drained.sum += s
			drained.Unlock()
			select {
			case <-stop:
				c, s := a.Drain()
				drained.Lock()
				drained.count += c
				drained.sum += s
				drained.Unlock()
				return
			default:
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Add(uint64(w), 2)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	drainWG.Wait()
	if drained.count != workers*per || drained.sum != int64(workers*per*2) {
		t.Fatalf("drained (%d, %d), want (%d, %d)",
			drained.count, drained.sum, workers*per, workers*per*2)
	}
}

// observeSeries feeds 1..n units to a fresh recorder, spreading the
// observations over its shards, and checks the merged snapshot.
func observeSeries(t *testing.T, shards, capacity, n int, unit time.Duration, want Snapshot) {
	t.Helper()
	l := NewShardedLatencyRecorder(shards, capacity)
	for i := 1; i <= n; i++ {
		l.Observe(uint64(i), time.Duration(i)*unit)
	}
	if got := l.Snapshot(); got != want {
		t.Fatalf("Snapshot = %+v\nwant       %+v", got, want)
	}
}

// exactSeries is the snapshot of 1..100 ms with every sample retained:
// quantiles are exact (nearest rank).
var exactSeries = Snapshot{
	Count: 100, Sum: 5050 * time.Millisecond, Mean: 50500 * time.Microsecond,
	P50: 50 * time.Millisecond, P95: 95 * time.Millisecond,
	P99: 99 * time.Millisecond, Max: 100 * time.Millisecond,
}

// A one-shard recorder is a plain bounded latency recorder.
func TestLatencyRecorder(t *testing.T) {
	observeSeries(t, 1, 1024, 100, time.Millisecond, exactSeries)
}

// Past capacity the ring keeps the most recent samples: the quantiles
// come from the last 16 observations (985..1000 us) while count, sum,
// mean and max still cover all 1000.
func TestLatencyRecorderOverCapacity(t *testing.T) {
	us := time.Microsecond
	observeSeries(t, 1, 16, 1000, us, Snapshot{
		Count: 1000, Sum: 500500 * us, Mean: 500500 * time.Nanosecond,
		P50: 992 * us, P95: 1000 * us, P99: 1000 * us, Max: 1000 * us,
	})
}

// Merging the shards' rings yields the same snapshot as one recorder.
func TestShardedLatencyRecorderSnapshot(t *testing.T) {
	observeSeries(t, 4, 1024, 100, time.Millisecond, exactSeries)
}

func TestShardedLatencyRecorderConcurrent(t *testing.T) {
	l := NewShardedLatencyRecorder(8, 1<<12)
	var wg sync.WaitGroup
	const workers, per = 16, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Observe(uint64(w), time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	s := l.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	if s.Mean != time.Millisecond {
		t.Fatalf("Mean = %v, want 1ms", s.Mean)
	}
}
