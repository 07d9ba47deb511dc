package trace

import (
	"sync"
	"testing"
)

// Hammer the recorder from many writers while readers snapshot and filter
// concurrently. Run under -race (the Makefile's race target includes this
// package) this proves the seqlock publication protocol is data-race free;
// run without it, it still checks that cumulative tallies see every drop.
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := New(Config{Shards: 4, SlotsPerShard: 256, SampleShift: 2})
	const (
		writers = 8
		perW    = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ev := range r.Events(Filter{DropsOnly: true}) {
					if ev.Verdict != VerdictDrop {
						t.Error("filter returned a non-drop event")
						return
					}
				}
				r.DropCounts()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h := uint64(w)<<32 | uint64(i)
				v := VerdictForward
				var code uint8
				if i%3 == 0 {
					v, code = VerdictDrop, uint8(i%4+1)
				}
				r.Record(Event{TimeNs: int64(i), FlowHash: h, VNI: 100, Stage: StageFallback, Verdict: v, Code: code})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish on their own (readers loop until stop); release the
	// readers once every writer's drops are visible in the tallies.
	for {
		var sum uint64
		for code := uint8(1); code <= 4; code++ {
			sum += r.DropTally(StageFallback, code)
		}
		want := uint64(writers) * uint64((perW+2)/3)
		if sum == want {
			break
		}
		if sum > want {
			t.Fatalf("tally overshot: %d > %d", sum, want)
		}
	}
	close(stop)
	<-done

	// Post-quiescence, every surviving record must be internally coherent.
	for _, ev := range r.Snapshot() {
		if ev.Stage != StageFallback || ev.VNI != 100 {
			t.Fatalf("torn record: %+v", ev)
		}
		if (ev.Verdict == VerdictDrop) != (ev.Code != 0) {
			t.Fatalf("verdict/code mismatch: %+v", ev)
		}
	}
}
