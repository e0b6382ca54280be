package pipeline

import (
	"testing"
	"time"

	"seatwin/internal/ais"
	"seatwin/internal/broker"
)

// consumeAll runs ConsumeLoop over rc until group has committed want
// records of topic, then closes c, which ends the loop, and returns the
// loop's count. A poll wait expiring is not an end of stream.
func consumeAll(t *testing.T, p *Pipeline, br *broker.Broker, topic, group string, c *broker.Consumer, rc RecordConsumer, pollWait time.Duration, want int64) int {
	t.Helper()
	done := make(chan int, 1)
	go func() { done <- p.ConsumeLoop(rc, pollWait) }()
	deadline := time.Now().Add(10 * time.Second)
	for committed(t, br, topic, group) < want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()
	select {
	case n := <-done:
		return n
	case <-time.After(10 * time.Second):
		t.Fatal("ConsumeLoop did not return after its consumer closed")
		return 0
	}
}

// committed sums group's committed offsets over topic's partitions.
func committed(t *testing.T, br *broker.Broker, topic, group string) int64 {
	t.Helper()
	ends, err := br.EndOffsets(topic)
	if err != nil {
		t.Fatal(err)
	}
	lags, err := br.Lag(topic, group)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for i := range ends {
		n += ends[i] - lags[i]
	}
	return n
}

// TestConsumeLoopOutlivesExpiredPoll: a poll wait that expires with
// nothing to read leaves ConsumeLoop consuming; only closing the
// consumer ends it.
func TestConsumeLoopOutlivesExpiredPoll(t *testing.T) {
	br := broker.New()
	if err := br.CreateTopic("ais", 1); err != nil {
		t.Fatal(err)
	}
	c, err := br.Subscribe("ais", "pipeline")
	if err != nil {
		t.Fatal(err)
	}
	p := newTestPipeline(t)
	done := make(chan int, 1)
	go func() { done <- p.ConsumeLoop(c, 20*time.Millisecond) }()

	produce := func(i int) {
		t.Helper()
		if _, _, err := br.Produce("ais", "237000001", ais.PositionReport{
			MMSI: 237000001, Lat: 37.5, Lon: 24.5 + float64(i)*0.01, SOG: 12, COG: 90,
			Timestamp: t0.Add(time.Duration(i) * 30 * time.Second),
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitMessages := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for p.Stats().Messages < want {
			if time.Now().After(deadline) {
				t.Fatalf("ingested %d reports, want %d: ConsumeLoop stopped consuming", p.Stats().Messages, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	produce(0)
	waitMessages(1)
	time.Sleep(100 * time.Millisecond) // several poll waits expire empty
	produce(1)
	waitMessages(2)

	c.Close()
	select {
	case n := <-done:
		if n != 2 {
			t.Fatalf("ConsumeLoop returned %d, want 2", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ConsumeLoop did not return after its consumer closed")
	}
}
