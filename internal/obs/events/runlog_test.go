package events

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestRunLogMatchesEmit is the RunLog contract: one run written
// through a RunLog leaves the log exactly as per-event Emit and
// Resolve calls would, whatever the ring capacity. The script spans
// several chunks, and resolves events while they are buffered, after
// their chunk was appended, and after the ring evicted them.
func TestRunLogMatchesEmit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5*chunkSize + 37
	type resolve struct {
		at, event int // after emitting event at, resolve event
		out       Outcome
	}
	var script []resolve
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			back := rng.Intn(3 * chunkSize)
			if back > i {
				back = i
			}
			script = append(script, resolve{at: i, event: i - back, out: Outcome{MeasuredIdleMS: float64(i), RegretJ: float64(back)}})
		}
	}
	for _, capacity := range []int{1, 100, chunkSize, 3*chunkSize + 1, DefaultCapacity} {
		want, got := NewLog(capacity), NewLog(capacity)
		want.Emit(Event{Kind: KindJournalHit, Detail: "before"})
		got.Emit(Event{Kind: KindJournalHit, Detail: "before"})
		w := got.StartRun()
		seqs := make([]uint64, n)
		refs := make([]uint64, n)
		k := 0
		for i := 0; i < n; i++ {
			ev := Event{TMS: float64(i), Kind: KindRPMShift, Disk: i % 4, TargetRPM: 3000 + i}
			seqs[i] = want.Emit(ev)
			refs[i] = w.Emit(ev)
			for ; k < len(script) && script[k].at == i; k++ {
				want.Resolve(seqs[script[k].event], script[k].out)
				w.Resolve(refs[script[k].event], script[k].out)
			}
		}
		w.Close()
		want.Emit(Event{Kind: KindJournalHit, Detail: "after"})
		got.Emit(Event{Kind: KindJournalHit, Detail: "after"})
		if !reflect.DeepEqual(got.Events(), want.Events()) {
			t.Fatalf("capacity %d: RunLog events differ from per-event Emit", capacity)
		}
		if got.Len() != want.Len() || got.Dropped() != want.Dropped() {
			t.Fatalf("capacity %d: len/dropped = %d/%d, want %d/%d", capacity, got.Len(), got.Dropped(), want.Len(), want.Dropped())
		}
	}
}

// TestRunLogBuffersUntilChunkFull: a run's events stay out of the
// ring until a chunk fills or the run closes.
func TestRunLogBuffersUntilChunkFull(t *testing.T) {
	l := NewLog(0)
	w := l.StartRun()
	for i := 0; i < chunkSize; i++ {
		w.Emit(Event{Kind: KindBailout})
	}
	if l.Len() != 0 {
		t.Fatalf("ring holds %d events before the chunk was appended", l.Len())
	}
	w.Emit(Event{Kind: KindBailout})
	if l.Len() != chunkSize {
		t.Fatalf("ring holds %d events after one full chunk, want %d", l.Len(), chunkSize)
	}
	w.Close()
	if l.Len() != chunkSize+1 {
		t.Fatalf("ring holds %d events after Close, want %d", l.Len(), chunkSize+1)
	}
}

// TestRunLogsInterleaveByChunk: concurrent runs on one log interleave
// whole chunks, and each run's events keep their emit order.
func TestRunLogsInterleaveByChunk(t *testing.T) {
	l := NewLog(0)
	const runs, perRun = 4, 3*chunkSize + 5
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := l.StartRun()
			for i := 0; i < perRun; i++ {
				ref := w.Emit(Event{Disk: r, TMS: float64(i)})
				w.Resolve(ref, Outcome{WindowMS: float64(i)})
			}
			w.Close()
		}(r)
	}
	wg.Wait()
	evs := l.Events()
	if len(evs) != runs*perRun {
		t.Fatalf("len = %d, want %d", len(evs), runs*perRun)
	}
	next := make([]int, runs)
	for i := 0; i < len(evs); {
		d := evs[i].Disk
		// A chunk is chunkSize events of one run, or its final rest.
		end := i + chunkSize
		if rest := i + perRun - next[d]; rest < end {
			end = rest
		}
		for ; i < end; i++ {
			e := evs[i]
			if e.Disk != d || e.TMS != float64(next[d]) || e.WindowMS != e.TMS || e.Seq != uint64(i+1) {
				t.Fatalf("event %d = %+v, want run %d event %d", i, e, d, next[d])
			}
			next[d]++
		}
	}
}

func TestRunLogNil(t *testing.T) {
	var l *Log
	if w := l.StartRun(); w != nil {
		t.Fatal("nil log started a run")
	}
	var w *RunLog
	w.Close()
}

// TestRunLogDoesNotAllocate: a warmed-up pool serves a run's buffer,
// so emitting and resolving through a RunLog allocates nothing.
func TestRunLogDoesNotAllocate(t *testing.T) {
	l := NewLog(1024)
	ev := Event{TMS: 1, Kind: KindSpinDown, Disk: 0, Trigger: TrigThreshold}
	run := func() {
		w := l.StartRun()
		for i := 0; i < 2*chunkSize; i++ {
			ref := w.Emit(ev)
			w.Resolve(ref, Outcome{RegretJ: 1})
		}
		w.Close()
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("a RunLog run allocated %.1f times, want 0", allocs)
	}
}
