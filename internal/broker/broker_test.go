package broker

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestProduceConsumeSingle(t *testing.T) {
	b := New()
	if err := b.CreateTopic("ais", 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := b.Produce("ais", fmt.Sprintf("v%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	c, err := b.Subscribe("ais", "g1")
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	for len(got) < 100 {
		recs := c.Poll(50, time.Second)
		if len(recs) == 0 {
			t.Fatalf("poll stalled at %d records", len(got))
		}
		got = append(got, recs...)
	}
	if len(got) != 100 {
		t.Fatalf("got %d records", len(got))
	}
	c.Commit()
	lag, _ := b.Lag("ais", "g1")
	for pi, l := range lag {
		if l != 0 {
			t.Errorf("partition %d lag %d after commit", pi, l)
		}
	}
}

func TestPerKeyOrdering(t *testing.T) {
	b := New()
	b.CreateTopic("ais", 8)
	const keys = 20
	const perKey = 50
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			b.Produce("ais", fmt.Sprintf("mmsi-%d", k), i)
		}
	}
	c, _ := b.Subscribe("ais", "g")
	lastSeen := make(map[string]int)
	total := 0
	for total < keys*perKey {
		recs := c.Poll(100, time.Second)
		if len(recs) == 0 {
			t.Fatal("poll stalled")
		}
		for _, r := range recs {
			v := r.Value.(int)
			if prev, ok := lastSeen[r.Key]; ok && v != prev+1 {
				t.Fatalf("key %s: got %d after %d", r.Key, v, prev)
			}
			lastSeen[r.Key] = v
			total++
		}
	}
}

func TestSameKeySamePartition(t *testing.T) {
	b := New()
	b.CreateTopic("t", 16)
	p1, _, _ := b.Produce("t", "vessel-42", 1)
	p2, _, _ := b.Produce("t", "vessel-42", 2)
	if p1 != p2 {
		t.Fatalf("same key mapped to partitions %d and %d", p1, p2)
	}
}

func TestPartitionForDeterministic(t *testing.T) {
	f := func(key string) bool {
		return partitionFor(key, 12) == partitionFor(key, 12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionForInRange(t *testing.T) {
	f := func(key string) bool {
		p := partitionFor(key, 7)
		return p >= 0 && p < 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOffsetsMonotonicPerPartition(t *testing.T) {
	b := New()
	b.CreateTopic("t", 1)
	var prev int64 = -1
	for i := 0; i < 50; i++ {
		_, off, err := b.Produce("t", "k", i)
		if err != nil {
			t.Fatal(err)
		}
		if off != prev+1 {
			t.Fatalf("offset %d after %d", off, prev)
		}
		prev = off
	}
}

func TestCommitResumesAfterResubscribe(t *testing.T) {
	b := New()
	b.CreateTopic("t", 1)
	for i := 0; i < 10; i++ {
		b.Produce("t", "k", i)
	}
	c1, _ := b.Subscribe("t", "g")
	recs := c1.Poll(5, time.Second)
	if len(recs) != 5 {
		t.Fatalf("polled %d", len(recs))
	}
	c1.Commit()
	c1.Close()

	c2, _ := b.Subscribe("t", "g")
	recs = c2.Poll(100, time.Second)
	if len(recs) != 5 {
		t.Fatalf("resumed with %d records, want 5", len(recs))
	}
	if recs[0].Value.(int) != 5 {
		t.Fatalf("resumed at %v, want 5", recs[0].Value)
	}
}

func TestUncommittedRedeliveredAfterRebalance(t *testing.T) {
	// At-least-once: polling without committing and then rebalancing
	// must redeliver from the committed offset.
	b := New()
	b.CreateTopic("t", 1)
	for i := 0; i < 10; i++ {
		b.Produce("t", "k", i)
	}
	c1, _ := b.Subscribe("t", "g")
	if recs := c1.Poll(10, time.Second); len(recs) != 10 {
		t.Fatalf("polled %d", len(recs))
	}
	// No commit. A new member joining rebalances the group.
	c2, _ := b.Subscribe("t", "g")
	got := 0
	for _, c := range []*Consumer{c1, c2} {
		for {
			recs := c.Poll(10, 50*time.Millisecond)
			if len(recs) == 0 {
				break
			}
			got += len(recs)
		}
	}
	if got != 10 {
		t.Fatalf("redelivered %d records, want 10", got)
	}
}

func TestGroupRebalanceSpreadsPartitions(t *testing.T) {
	b := New()
	b.CreateTopic("t", 6)
	c1, _ := b.Subscribe("t", "g")
	if got := len(c1.Assignment()); got != 6 {
		t.Fatalf("single member owns %d partitions, want 6", got)
	}
	c2, _ := b.Subscribe("t", "g")
	a1, a2 := c1.Assignment(), c2.Assignment()
	if len(a1)+len(a2) != 6 {
		t.Fatalf("assignments %v + %v do not cover the topic", a1, a2)
	}
	seen := map[int]bool{}
	for _, p := range append(a1, a2...) {
		if seen[p] {
			t.Fatalf("partition %d assigned twice", p)
		}
		seen[p] = true
	}
	c2.Close()
	if got := len(c1.Assignment()); got != 6 {
		t.Fatalf("after leave, member owns %d partitions, want 6", got)
	}
}

func TestIndependentGroups(t *testing.T) {
	b := New()
	b.CreateTopic("t", 2)
	for i := 0; i < 6; i++ {
		b.Produce("t", fmt.Sprintf("k%d", i), i)
	}
	ca, _ := b.Subscribe("t", "groupA")
	cb, _ := b.Subscribe("t", "groupB")
	ra := ca.Poll(10, time.Second)
	rb := cb.Poll(10, time.Second)
	if len(ra) != 6 || len(rb) != 6 {
		t.Fatalf("groups saw %d and %d records, want 6 each", len(ra), len(rb))
	}
}

func TestTruncateRetention(t *testing.T) {
	b := New()
	b.CreateTopic("t", 1)
	for i := 0; i < 100; i++ {
		b.Produce("t", "k", i)
	}
	b.Truncate("t", 10)
	c, _ := b.Subscribe("t", "g")
	recs := c.Poll(1000, time.Second)
	if len(recs) != 10 {
		t.Fatalf("after retention, polled %d records, want 10", len(recs))
	}
	if recs[0].Value.(int) != 90 {
		t.Fatalf("retention kept wrong tail: first value %v", recs[0].Value)
	}
	if recs[0].Offset != 90 {
		t.Fatalf("offsets must be stable across truncation: got %d", recs[0].Offset)
	}
}

func TestUnknownTopicErrors(t *testing.T) {
	b := New()
	if _, _, err := b.Produce("nope", "k", 1); err == nil {
		t.Error("produce to unknown topic must fail")
	}
	if _, err := b.Subscribe("nope", "g"); err == nil {
		t.Error("subscribe to unknown topic must fail")
	}
	if err := b.CreateTopic("bad", 0); err == nil {
		t.Error("zero partitions must fail")
	}
	if b.Partitions("nope") != 0 {
		t.Error("unknown topic must report 0 partitions")
	}
}

func TestCreateTopicIdempotent(t *testing.T) {
	b := New()
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("t", 3); err != nil {
		t.Fatalf("re-create with same partitions must be a no-op: %v", err)
	}
	if err := b.CreateTopic("t", 5); err == nil {
		t.Fatal("re-create with different partitions must fail")
	}
}

func TestPollTimeout(t *testing.T) {
	b := New()
	b.CreateTopic("t", 1)
	c, _ := b.Subscribe("t", "g")
	start := time.Now()
	recs := c.Poll(10, 30*time.Millisecond)
	// An expired wait is an empty batch, never the nil that means
	// closed: consume loops must keep polling.
	if recs == nil || len(recs) != 0 {
		t.Fatalf("expired poll returned %#v, want an empty non-nil batch", recs)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("poll returned too early: %v", d)
	}
	c.Close()
	if recs := c.Poll(10, time.Second); recs != nil {
		t.Fatalf("closed poll returned %#v, want nil", recs)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	b := New()
	b.CreateTopic("t", 8)
	const producers = 8
	const perProducer = 1000

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b.Produce("t", fmt.Sprintf("key-%d-%d", p, i%16), i)
			}
		}(p)
	}

	var consumed sync.Map
	var total int64
	var cwg sync.WaitGroup
	var totalMu sync.Mutex
	for g := 0; g < 3; g++ {
		cwg.Add(1)
		go func(g int) {
			defer cwg.Done()
			c, _ := b.Subscribe("t", fmt.Sprintf("solo-%d", g))
			count := 0
			deadline := time.Now().Add(10 * time.Second)
			for count < producers*perProducer && time.Now().Before(deadline) {
				recs := c.Poll(256, 100*time.Millisecond)
				count += len(recs)
				c.Commit()
			}
			consumed.Store(g, count)
			totalMu.Lock()
			total += int64(count)
			totalMu.Unlock()
		}(g)
	}
	wg.Wait()
	cwg.Wait()
	consumed.Range(func(k, v any) bool {
		if v.(int) != producers*perProducer {
			t.Errorf("group %v consumed %v records, want %d", k, v, producers*perProducer)
		}
		return true
	})
}

func BenchmarkProduce(b *testing.B) {
	br := New()
	br.CreateTopic("t", 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Produce("t", "key-123456789", i)
	}
}

func BenchmarkProduceConsume(b *testing.B) {
	br := New()
	br.CreateTopic("t", 4)
	c, _ := br.Subscribe("t", "g")
	b.ResetTimer()
	consumed := 0
	for i := 0; i < b.N; i++ {
		br.Produce("t", "k", i)
		if i%256 == 0 {
			consumed += len(c.Poll(512, 0))
		}
	}
	for consumed < b.N {
		recs := c.Poll(1024, time.Second)
		if len(recs) == 0 {
			break
		}
		consumed += len(recs)
	}
}

// TestPollWakesOnProduce verifies Poll blocks on the topic's broadcast
// channel instead of sleeping: a record produced mid-wait is returned
// well before the poll deadline.
func TestPollWakesOnProduce(t *testing.T) {
	b := New()
	b.CreateTopic("t", 1)
	c, _ := b.Subscribe("t", "g")

	start := time.Now()
	go func() {
		time.Sleep(30 * time.Millisecond)
		b.Produce("t", "k", "v")
	}()
	recs := c.Poll(10, 10*time.Second)
	elapsed := time.Since(start)
	if len(recs) != 1 {
		t.Fatalf("poll returned %d records", len(recs))
	}
	// The wakeup must come from the produce (~30ms), not the 10s
	// deadline; a generous bound keeps slow CI honest.
	if elapsed > 5*time.Second {
		t.Fatalf("poll woke after %v; wakeup lost", elapsed)
	}
}

// TestCloseUnblocksPoll verifies a consumer blocked in Poll returns
// promptly (nil) when Close is called from another goroutine.
func TestCloseUnblocksPoll(t *testing.T) {
	b := New()
	b.CreateTopic("t", 1)
	c, _ := b.Subscribe("t", "g")

	done := make(chan []Record, 1)
	go func() { done <- c.Poll(10, 10*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case recs := <-done:
		if recs != nil {
			t.Fatalf("closed poll returned %d records", len(recs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Poll")
	}
	// Close is idempotent.
	c.Close()
}

// TestSubscribeWakesBlockedMember verifies a member blocked on an
// empty assignment re-polls when a rebalance hands it data-bearing
// partitions (a new subscriber joining broadcasts the topic).
func TestSubscribeWakesBlockedMember(t *testing.T) {
	b := New()
	b.CreateTopic("t", 2)
	c1, _ := b.Subscribe("t", "g")

	done := make(chan int, 1)
	go func() {
		n := 0
		for {
			recs := c1.Poll(100, 2*time.Second)
			if len(recs) == 0 {
				done <- n
				return
			}
			n += len(recs)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	// Produce onto both partitions while c1 owns them all.
	for i := 0; i < 10; i++ {
		if _, _, err := b.Produce("t", fmt.Sprintf("k%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if got := <-done; got != 10 {
		t.Fatalf("blocked member consumed %d records, want 10", got)
	}
}

func TestGroupLags(t *testing.T) {
	b := New()
	if err := b.CreateTopic("ais", 2); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateTopic("events", 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := b.Produce("ais", fmt.Sprintf("v%d", i), i); err != nil {
			t.Fatal(err)
		}
	}

	// No groups yet: nothing to report.
	if lags := b.GroupLags(); len(lags) != 0 {
		t.Fatalf("GroupLags with no groups = %v", lags)
	}

	c, err := b.Subscribe("ais", "g1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe("ais", "g2"); err != nil {
		t.Fatal(err)
	}
	lags := b.GroupLags()
	if len(lags) != 2 {
		t.Fatalf("GroupLags = %v, want 2 entries", lags)
	}
	for _, gl := range lags {
		if gl.Topic != "ais" || gl.Lag != 10 {
			t.Fatalf("fresh group lag = %+v, want topic ais lag 10", gl)
		}
	}
	if lags[0].Group != "g1" || lags[1].Group != "g2" {
		t.Fatalf("GroupLags not sorted by group: %v", lags)
	}

	// Consuming and committing everything drains g1's lag; g2 stays.
	var n int
	for n < 10 {
		recs := c.Poll(100, time.Second)
		if len(recs) == 0 {
			t.Fatalf("poll stalled at %d records", n)
		}
		n += len(recs)
		c.Commit()
	}
	lags = b.GroupLags()
	if lags[0].Group != "g1" || lags[0].Lag != 0 {
		t.Fatalf("committed group lag = %+v, want 0", lags[0])
	}
	if lags[1].Group != "g2" || lags[1].Lag != 10 {
		t.Fatalf("idle group lag = %+v, want 10", lags[1])
	}
}
