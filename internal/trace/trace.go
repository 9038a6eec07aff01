// Package trace defines the I/O trace format that connects the
// compiler side of the system (analysis, transformation, power-call
// insertion, trace generation) to the disk power simulator.
//
// A trace is an ordered stream of events in program order. Each I/O
// request carries the four attributes of the paper's simulator input
// (arrival time, start block, size, type) plus the closed-loop
// compute gap that separates it from the previous event, and
// provenance (file, stripe unit, nest, iteration), which only the
// text codec reads. Power-management events are the explicit
// spin_down / spin_up / set_RPM calls inserted by the compiler; they
// occupy positions in program order exactly where the compiler placed
// them in the code.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// isFinite reports whether v is neither NaN nor infinite.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// ReqKind is the request type: read or write.
type ReqKind uint8

// Request kinds.
const (
	Read ReqKind = iota
	Write
)

// String returns "r" or "w".
func (k ReqKind) String() string {
	if k == Write {
		return "w"
	}
	return "r"
}

// Request is one disk I/O request. Requests are issued at
// stripe-unit granularity, so each touches exactly one disk.
//
// Requests and power ops hold no pointer, so the garbage collector
// never scans a trace's events; the fields run from widest to
// narrowest so no padding is wasted.
type Request struct {
	// ArrivalMS is the nominal arrival time in the unperturbed
	// (full-speed, no-power-management) schedule; the paper's trace
	// format field. The simulator recomputes actual issue times from
	// the closed-loop gaps.
	ArrivalMS float64
	// Block and Bytes, with Disk and Kind, describe the physical
	// access.
	Block int64
	Bytes int64
	// Unit and File identify the stripe unit; File indexes the
	// trace's file-name table (see Trace.Files).
	Unit int64
	// Iter and Nest locate the request in the program's iteration
	// space (linearized iteration within the nest).
	Iter int64
	Disk int32
	Nest int32
	File int32
	Kind ReqKind
}

// OpKind is the power-management call type.
type OpKind uint8

// Power-management call kinds.
const (
	OpSpinDown OpKind = iota
	OpSpinUp
	OpSetRPM
)

// String returns the call name as it appears in the paper.
func (k OpKind) String() string {
	switch k {
	case OpSpinDown:
		return "spin_down"
	case OpSpinUp:
		return "spin_up"
	default:
		return "set_rpm"
	}
}

// PowerOp is an explicit power-management call inserted by the
// compiler.
type PowerOp struct {
	// PredictedIdleMS is the compiler's estimate of the idle period
	// this call begins (for spin_down/set_rpm to a lower level);
	// recorded for the Table 3 misprediction analysis.
	PredictedIdleMS float64
	Disk            int32
	// RPM is the target speed for OpSetRPM.
	RPM  int32
	Kind OpKind
}

// EventKind discriminates trace events.
type EventKind uint8

// Event kinds.
const (
	EvRequest EventKind = iota
	EvPowerOp
)

// Event is one entry of the program-order event stream. GapMS is the
// compute time separating this event from the completion of the
// previous blocking event (the closed-loop "think time").
type Event struct {
	Kind  EventKind
	GapMS float64
	Req   Request // valid when Kind == EvRequest
	Op    PowerOp // valid when Kind == EvPowerOp
}

// Trace is a complete program trace.
type Trace struct {
	// Program names the traced program.
	Program string
	// NumDisks is the size of the disk subsystem the trace targets.
	NumDisks int
	// Files is the file-name table the requests' File fields index:
	// File f names Files[f-1], and File 0 names no file.
	Files []string
	// Events is the program-order event stream.
	Events []Event
}

// FileName returns the name of file index f: "" for 0, else
// Files[f-1]. Validate reports an index outside the table.
func (t *Trace) FileName(f int32) string {
	if f == 0 {
		return ""
	}
	return t.Files[f-1]
}

// NumRequests returns the number of I/O requests in the trace.
func (t *Trace) NumRequests() int {
	n := 0
	for i := range t.Events {
		if t.Events[i].Kind == EvRequest {
			n++
		}
	}
	return n
}

// NumPowerOps returns the number of power-management calls.
func (t *Trace) NumPowerOps() int {
	n := 0
	for i := range t.Events {
		if t.Events[i].Kind == EvPowerOp {
			n++
		}
	}
	return n
}

// TotalBytes returns the total bytes transferred by all requests.
func (t *Trace) TotalBytes() int64 {
	var n int64
	for i := range t.Events {
		if t.Events[i].Kind == EvRequest {
			n += t.Events[i].Req.Bytes
		}
	}
	return n
}

// PerDiskRequests returns the request count per disk.
func (t *Trace) PerDiskRequests() []int {
	out := make([]int, t.NumDisks)
	for i := range t.Events {
		if t.Events[i].Kind == EvRequest {
			out[t.Events[i].Req.Disk]++
		}
	}
	return out
}

// MergeOpen merges several traces into one multiprogrammed workload
// on a shared subsystem, interleaving their requests by nominal
// arrival time. Power-op events are dropped (their program-order
// anchors are meaningless across programs), and the compute gaps are
// recomputed as arrival deltas, so the merged trace is intended for
// open-loop replay — the server scenario the paper's single-program
// evaluation sets aside. The merged file-name table holds each
// distinct input file name once.
func MergeOpen(numDisks int, traces ...*Trace) (*Trace, error) {
	out := &Trace{NumDisks: numDisks}
	var names []string
	fileIdx := make(map[string]int32)
	for _, t := range traces {
		if t.NumDisks > numDisks {
			return nil, fmt.Errorf("trace: input uses %d disks, merged subsystem has %d", t.NumDisks, numDisks)
		}
		names = append(names, t.Program)
		// remap[f] is the merged index of the input's file index f.
		remap := make([]int32, len(t.Files)+1)
		for i, name := range t.Files {
			k, ok := fileIdx[name]
			if !ok {
				out.Files = append(out.Files, name)
				k = int32(len(out.Files))
				fileIdx[name] = k
			}
			remap[i+1] = k
		}
		for i := range t.Events {
			if t.Events[i].Kind != EvRequest {
				continue
			}
			ev := t.Events[i]
			if ev.Req.File < 0 || int(ev.Req.File) >= len(remap) {
				return nil, fmt.Errorf("trace: input %q event %d file %d out of range", t.Program, i, ev.Req.File)
			}
			ev.Req.File = remap[ev.Req.File]
			out.Events = append(out.Events, ev)
		}
	}
	out.Program = strings.Join(names, "+")
	sort.SliceStable(out.Events, func(a, b int) bool {
		return out.Events[a].Req.ArrivalMS < out.Events[b].Req.ArrivalMS
	})
	prev := 0.0
	for i := range out.Events {
		out.Events[i].GapMS = out.Events[i].Req.ArrivalMS - prev
		prev = out.Events[i].Req.ArrivalMS
	}
	return out, nil
}

// maxDisks bounds a trace's disk count. Compile and the simulator
// allocate per-disk state before they read an event, so a decoded
// header such as "H p 30000000000000" must fail validation rather
// than exhaust memory.
const maxDisks = 1 << 16

// Validate checks trace invariants: a disk count in [1, maxDisks],
// disks and file indexes in range, positive request sizes,
// non-negative gaps, and non-decreasing nominal arrivals.
func (t *Trace) Validate() error {
	if t.NumDisks <= 0 {
		return fmt.Errorf("trace: non-positive disk count %d", t.NumDisks)
	}
	if t.NumDisks > maxDisks {
		return fmt.Errorf("trace: disk count %d exceeds %d", t.NumDisks, maxDisks)
	}
	prevArrival := -1.0
	for i := range t.Events {
		ev := &t.Events[i]
		// NaN passes every ordered comparison below (NaN < 0 is false),
		// so non-finite times must be rejected explicitly.
		if !isFinite(ev.GapMS) || ev.GapMS < 0 {
			return fmt.Errorf("trace: event %d has bad gap %v", i, ev.GapMS)
		}
		switch ev.Kind {
		case EvRequest:
			r := &ev.Req
			if !isFinite(r.ArrivalMS) {
				return fmt.Errorf("trace: event %d has non-finite arrival %v", i, r.ArrivalMS)
			}
			if r.Disk < 0 || int(r.Disk) >= t.NumDisks {
				return fmt.Errorf("trace: event %d disk %d out of range", i, r.Disk)
			}
			if r.File < 0 || int(r.File) > len(t.Files) {
				return fmt.Errorf("trace: event %d file %d out of range", i, r.File)
			}
			if r.Bytes <= 0 {
				return fmt.Errorf("trace: event %d has non-positive size", i)
			}
			if r.Block < 0 {
				return fmt.Errorf("trace: event %d has negative block", i)
			}
			if r.ArrivalMS < prevArrival {
				return fmt.Errorf("trace: event %d arrival %.3f before previous %.3f", i, r.ArrivalMS, prevArrival)
			}
			prevArrival = r.ArrivalMS
		case EvPowerOp:
			o := &ev.Op
			if o.Disk < 0 || int(o.Disk) >= t.NumDisks {
				return fmt.Errorf("trace: event %d op disk %d out of range", i, o.Disk)
			}
			if o.Kind == OpSetRPM && o.RPM <= 0 {
				return fmt.Errorf("trace: event %d set_rpm with non-positive RPM", i)
			}
			if !isFinite(o.PredictedIdleMS) {
				return fmt.Errorf("trace: event %d has non-finite predicted idle %v", i, o.PredictedIdleMS)
			}
		default:
			return fmt.Errorf("trace: event %d has unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// Encode writes the trace in the textual interchange format. The
// format is line oriented:
//
//	# sdpm-trace v1
//	H <program> <numdisks>
//	R <arrival_ms> <disk> <block> <bytes> <r|w> <gap_ms> <file> <unit> <nest> <iter>
//	P <disk> <spin_down|spin_up|set_rpm> <rpm> <gap_ms> <predicted_idle_ms>
//
// A request's file is written by name, "-" for none; an index outside
// the file-name table is an error.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# sdpm-trace v1")
	fmt.Fprintf(bw, "H %s %d\n", nonEmpty(t.Program), t.NumDisks)
	for i := range t.Events {
		ev := &t.Events[i]
		switch ev.Kind {
		case EvRequest:
			r := &ev.Req
			if r.File < 0 || int(r.File) > len(t.Files) {
				return fmt.Errorf("trace: event %d file %d out of range", i, r.File)
			}
			fmt.Fprintf(bw, "R %.6f %d %d %d %s %.6f %s %d %d %d\n",
				r.ArrivalMS, r.Disk, r.Block, r.Bytes, r.Kind, ev.GapMS, nonEmpty(t.FileName(r.File)), r.Unit, r.Nest, r.Iter)
		case EvPowerOp:
			o := &ev.Op
			fmt.Fprintf(bw, "P %d %s %d %.6f %.6f\n", o.Disk, o.Kind, o.RPM, ev.GapMS, o.PredictedIdleMS)
		}
	}
	return bw.Flush()
}

func nonEmpty(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fromDash(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

// parseInt32 parses a decimal field that the trace holds as an int32;
// a value out of that range is an error, not a wrapped number.
func parseInt32(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	return int32(v), err
}

// Decode parses a trace in the textual interchange format. The
// file-name table lists the request files in order of first use.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	t := &Trace{}
	fileIdx := make(map[string]int32)
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "H":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: malformed header", line)
			}
			t.Program = fromDash(fields[1])
			nd, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad disk count: %v", line, err)
			}
			t.NumDisks = nd
			sawHeader = true
		case "R":
			if !sawHeader {
				return nil, fmt.Errorf("trace: line %d: request before header", line)
			}
			if len(fields) != 11 {
				return nil, fmt.Errorf("trace: line %d: malformed request (%d fields)", line, len(fields))
			}
			var ev Event
			ev.Kind = EvRequest
			var err error
			if ev.Req.ArrivalMS, err = strconv.ParseFloat(fields[1], 64); err != nil {
				return nil, fmt.Errorf("trace: line %d: arrival: %v", line, err)
			}
			if ev.Req.Disk, err = parseInt32(fields[2]); err != nil {
				return nil, fmt.Errorf("trace: line %d: disk: %v", line, err)
			}
			if ev.Req.Block, err = strconv.ParseInt(fields[3], 10, 64); err != nil {
				return nil, fmt.Errorf("trace: line %d: block: %v", line, err)
			}
			if ev.Req.Bytes, err = strconv.ParseInt(fields[4], 10, 64); err != nil {
				return nil, fmt.Errorf("trace: line %d: bytes: %v", line, err)
			}
			switch fields[5] {
			case "r":
				ev.Req.Kind = Read
			case "w":
				ev.Req.Kind = Write
			default:
				return nil, fmt.Errorf("trace: line %d: bad request kind %q", line, fields[5])
			}
			if ev.GapMS, err = strconv.ParseFloat(fields[6], 64); err != nil {
				return nil, fmt.Errorf("trace: line %d: gap: %v", line, err)
			}
			if name := fields[7]; name != "-" {
				k, ok := fileIdx[name]
				if !ok {
					t.Files = append(t.Files, name)
					k = int32(len(t.Files))
					fileIdx[name] = k
				}
				ev.Req.File = k
			}
			if ev.Req.Unit, err = strconv.ParseInt(fields[8], 10, 64); err != nil {
				return nil, fmt.Errorf("trace: line %d: unit: %v", line, err)
			}
			if ev.Req.Nest, err = parseInt32(fields[9]); err != nil {
				return nil, fmt.Errorf("trace: line %d: nest: %v", line, err)
			}
			if ev.Req.Iter, err = strconv.ParseInt(fields[10], 10, 64); err != nil {
				return nil, fmt.Errorf("trace: line %d: iter: %v", line, err)
			}
			t.Events = append(t.Events, ev)
		case "P":
			if !sawHeader {
				return nil, fmt.Errorf("trace: line %d: power op before header", line)
			}
			if len(fields) != 6 {
				return nil, fmt.Errorf("trace: line %d: malformed power op", line)
			}
			var ev Event
			ev.Kind = EvPowerOp
			var err error
			if ev.Op.Disk, err = parseInt32(fields[1]); err != nil {
				return nil, fmt.Errorf("trace: line %d: disk: %v", line, err)
			}
			switch fields[2] {
			case "spin_down":
				ev.Op.Kind = OpSpinDown
			case "spin_up":
				ev.Op.Kind = OpSpinUp
			case "set_rpm":
				ev.Op.Kind = OpSetRPM
			default:
				return nil, fmt.Errorf("trace: line %d: bad op kind %q", line, fields[2])
			}
			if ev.Op.RPM, err = parseInt32(fields[3]); err != nil {
				return nil, fmt.Errorf("trace: line %d: rpm: %v", line, err)
			}
			if ev.GapMS, err = strconv.ParseFloat(fields[4], 64); err != nil {
				return nil, fmt.Errorf("trace: line %d: gap: %v", line, err)
			}
			if ev.Op.PredictedIdleMS, err = strconv.ParseFloat(fields[5], 64); err != nil {
				return nil, fmt.Errorf("trace: line %d: predicted idle: %v", line, err)
			}
			t.Events = append(t.Events, ev)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("trace: missing header")
	}
	return t, nil
}
