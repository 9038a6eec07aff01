package events

import "sync"

// chunkSize is the number of events a RunLog buffers before it
// appends them to its Log.
const chunkSize = 512

// RunLog buffers one simulation run's events and appends them to its
// Log a chunk at a time, taking the log's lock once per chunk rather
// than once per event. The events reach the ring in emit order with
// consecutive sequence numbers, so a run that overlaps no other
// writer leaves exactly the ring that per-event Log.Emit calls would.
// Overlapping runs interleave by chunk. A RunLog belongs to one
// goroutine.
//
// Emit returns a run-local reference rather than a sequence number:
// seqs are assigned when the event's chunk is appended. Resolve takes
// that reference and edits the buffered event, or the ring's copy
// once the chunk has been appended.
type RunLog struct {
	l   *Log
	buf [chunkSize]Event
	n   int    // events buffered in buf
	ref uint64 // reference of buf[0]
	// firsts holds the first seq of each appended chunk. Every
	// appended chunk but the last is full, so reference r lives in
	// chunk r/chunkSize.
	firsts []uint64
}

// runLogPool holds finished runs' RunLogs for reuse. A sync.Pool may
// drop what it is given (under the race detector it drops a quarter
// on purpose), so each log also keeps its last finished RunLog in
// Log.spare: runs that follow one another reuse it and allocate
// nothing, and only overlapping runs go to the pool.
var runLogPool = sync.Pool{New: func() any { return new(RunLog) }}

// StartRun returns an empty RunLog appending to l, reusing a finished
// run's. A nil log returns nil. Call Close exactly once when the run
// ends, also when it fails.
func (l *Log) StartRun() *RunLog {
	if l == nil {
		return nil
	}
	w := l.spare.Swap(nil)
	if w == nil {
		w = runLogPool.Get().(*RunLog)
	}
	w.l, w.n, w.ref, w.firsts = l, 0, 0, w.firsts[:0]
	return w
}

// Emit buffers ev and returns its run-local reference for Resolve.
// A full buffer is appended to the log first.
func (w *RunLog) Emit(ev Event) uint64 {
	if w.n == chunkSize {
		w.flush()
	}
	w.buf[w.n] = ev
	w.n++
	return w.ref + uint64(w.n-1)
}

// Resolve fills in the measured outcome of the decision event Emit
// returned ref for. Like Log.Resolve it is a no-op once the event has
// been evicted from the ring.
func (w *RunLog) Resolve(ref uint64, out Outcome) {
	if ref >= w.ref {
		w.buf[ref-w.ref].resolve(out)
		return
	}
	w.l.Resolve(w.firsts[ref/chunkSize]+ref%chunkSize, out)
}

// flush appends the buffered events to the log.
func (w *RunLog) flush() {
	w.firsts = append(w.firsts, w.l.append(w.buf[:w.n]))
	w.ref += uint64(w.n)
	w.n = 0
}

// Close appends the events still buffered and releases w for reuse;
// w must not be used afterwards. A nil w is a no-op.
func (w *RunLog) Close() {
	if w == nil {
		return
	}
	if w.n > 0 {
		w.flush()
	}
	if !w.l.spare.CompareAndSwap(nil, w) {
		runLogPool.Put(w)
	}
}
