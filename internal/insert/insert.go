// Package insert implements the last stage of the paper's compiler:
// inserting explicit power-management calls into the program. Given
// the request sites and the predicted (mean) execution timeline, it
// decides, for every per-disk idle period, whether and how deep to
// power the disk down, and where to place the pre-activation call so
// the disk is back at full readiness when the next access arrives
// (the paper's Equation 1: d = ceil(Tsu / (s + Tm)) iterations of
// lead time; here expressed directly on the predicted timeline, with
// a guard margin absorbing the iteration-granularity rounding and
// execution jitter).
//
// The output is an instrumented trace: the original request stream
// with spin_down / spin_up / set_RPM events interleaved at the
// program points the compiler chose, plus a Plan recording every
// decision for the misprediction analysis of Table 3 and the energy
// estimate the compiler selects a mechanism by. Base emits the same
// stream with no calls: the uninstrumented trace the reactive and
// oracle schemes run.
package insert

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
)

// Mode selects the target power-management mechanism.
type Mode int

// Instrumentation modes.
const (
	// ModeTPM emits spin_down / spin_up calls (CMTPM).
	ModeTPM Mode = iota
	// ModeDRPM emits set_RPM calls (CMDRPM).
	ModeDRPM
)

// String returns the scheme name.
func (m Mode) String() string {
	if m == ModeTPM {
		return "CMTPM"
	}
	return "CMDRPM"
}

// Options configures instrumentation.
type Options struct {
	// Mode selects CMTPM or CMDRPM.
	Mode Mode
	// Disk supplies the power model used for break-even and level
	// decisions.
	Disk disk.Params
	// Model supplies the compiler's cycle estimates and the
	// runtime's jittered actuals.
	Model *cycles.Model
	// DisablePreactivation omits the pre-activation (spin-up /
	// restore-RPM) calls: the next access pays the wake-up cost on
	// demand. Used for the ablation study.
	DisablePreactivation bool
	// Files is the file-name table the sites' File fields index (as
	// tracegen.Sites returns it); it becomes the trace's Files.
	Files []string
}

// safetyPct shrinks every predicted idle period by this percentage
// before the pre-activation call is placed, making the compiler
// robust to its own estimation error: a gap that comes out shorter
// than predicted by up to safetyPct still hides the wake-up
// transition.
const safetyPct = 3

func (o *Options) model() *cycles.Model {
	if o.Model != nil {
		return o.Model
	}
	return cycles.New(cycles.DefaultClockHz, 0, 0)
}

// fullSpeedMS returns the service time of a request at the disk's
// full speed with the average seek: what the compiler's timeline and
// the nominal arrivals charge each request.
func (o *Options) fullSpeedMS() func(bytes int64) float64 {
	tbl := disk.TableFor(o.Disk)
	top := tbl.ClampIndex(tbl.P.MaxRPM)
	return func(b int64) float64 { return tbl.ServiceTimeSeekIdx(top, b, tbl.P.AvgSeekMS) }
}

// guardMS is the extra lead time added to a pre-activation whose
// transition takes transMS: a fixed 0.2 ms plus the transition scaled
// by the jitter model's noise.
func guardMS(m *cycles.Model, transMS float64) float64 {
	return 0.2 + transMS*m.NoisePct/100
}

// Call locates one inserted power-management call in the program's
// iteration space (the paper's Figure 2(d) view: explicit calls in
// the code).
type Call struct {
	// Nest and Iter anchor the call in iteration space (the request
	// site the call is ordered against).
	Nest int
	Iter int64
	Op   trace.PowerOp
}

// Plan is the complete instrumentation record.
type Plan struct {
	Mode Mode
	// PredictedEndMS is the compiler's program-completion estimate.
	PredictedEndMS float64
	// Levels[d][g] is the level disk.Table.Decide chose for gap g of
	// disk d: MaxRPM when the disk stays up, disk.Standby for a
	// spin-down, else the RPM level of a dip. Gap 0 is the leading
	// period (program start to the first access) and the last gap is
	// the trailing one. Used by the Table 3 misprediction analysis.
	Levels [][]int
	// PredictedIdle[d][g] is the predicted idle length per gap.
	PredictedIdle [][]float64
	// EnergyJ is the compiler's prediction of the disk subsystem's
	// energy for the instrumented program: the active energy of every
	// request plus each gap's energy at its planned level, all on the
	// predicted timeline. This is the quantity the compiler uses to
	// "decide the most suitable disk power management strategy"
	// (Section 3 of the paper): instrument for both mechanisms,
	// estimate, and keep the cheaper plan.
	EnergyJ float64
	// BaseEnergyJ is the same prediction with no power management:
	// every gap spent at full-speed idle.
	BaseEnergyJ float64
	// Ops is the number of power-management calls inserted.
	Ops int
	// Calls locates every inserted call in iteration space, in
	// insertion order.
	Calls []Call
}

// pos places one element of the instrumented stream: its
// compute-cycle position, the site index it is ordered against, and
// its priority around that site (-1 before the request, 0 the request
// itself, +1 just after it, +2 after it and every op anchored to it).
// Site i sits at (its CyclePos, i, 0), so no op ever ties with a site.
type pos struct {
	cyc    int64
	anchor int
	prio   int
}

func (a pos) cmp(b pos) int {
	if c := cmp.Compare(a.cyc, b.cyc); c != 0 {
		return c
	}
	if c := cmp.Compare(a.anchor, b.anchor); c != 0 {
		return c
	}
	return cmp.Compare(a.prio, b.prio)
}

// pendingOp is an inserted power op awaiting its place in the stream.
type pendingOp struct {
	pos
	op trace.PowerOp
}

func cmpOps(a, b pendingOp) int { return a.pos.cmp(b.pos) }

// merge visits the sites and the ops of every run in pos order,
// passing nil for a site (whose anchor is its index). The order is
// the one a stable sort of the sites followed by run 0, run 1, ...
// gives: the sites are in order already (tracegen.Check), a run out
// of order is stable-sorted in place first, and a tie between runs
// goes to the lower run. The runs are consumed.
func merge(sites []tracegen.Site, runs [][]pendingOp, visit func(at pos, op *trace.PowerOp)) {
	// heads is a binary min-heap of the runs that still hold ops,
	// keyed by each run's first op.
	heads := make([]int, 0, len(runs))
	for r, run := range runs {
		if !slices.IsSortedFunc(run, cmpOps) {
			slices.SortStableFunc(run, cmpOps)
		}
		if len(run) > 0 {
			heads = append(heads, r)
		}
	}
	less := func(a, b int) bool {
		if c := runs[a][0].pos.cmp(runs[b][0].pos); c != 0 {
			return c < 0
		}
		return a < b
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heads) {
				return
			}
			if c+1 < len(heads) && less(heads[c+1], heads[c]) {
				c++
			}
			if !less(heads[c], heads[i]) {
				return
			}
			heads[i], heads[c] = heads[c], heads[i]
			i = c
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for next := 0; next < len(sites) || len(heads) > 0; {
		if next < len(sites) {
			site := pos{cyc: sites[next].CyclePos, anchor: next}
			if len(heads) == 0 || site.cmp(runs[heads[0]][0].pos) < 0 {
				visit(site, nil)
				next++
				continue
			}
		}
		r := heads[0]
		visit(runs[r][0].pos, &runs[r][0].op)
		if runs[r] = runs[r][1:]; len(runs[r]) == 0 {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
}

// searchFrom returns sort.Search(n, f) for a predicate f that is false
// below some index and true from it on. It probes outward from hint
// (clamped to [0, n]) in doubling steps until it brackets the answer,
// then bisects the bracket, so a query whose answer lies near hint
// costs a few probes rather than log2(n).
func searchFrom(n, hint int, f func(int) bool) int {
	hint = min(max(hint, 0), n)
	// The answer lies in [lo, hi]: f is false below lo and true at hi
	// (or hi == n).
	lo, hi := 0, n
	if hint < n && !f(hint) {
		lo = hint + 1
		for step := 1; hint+step < n; step *= 2 {
			if f(hint + step) {
				hi = hint + step
				break
			}
			lo = hint + step + 1
		}
	} else {
		hi = hint
		for step := 1; hint-step >= 0; step *= 2 {
			if !f(hint - step) {
				lo = hint - step + 1
				break
			}
			hi = hint - step
		}
	}
	return lo + sort.Search(hi-lo, func(i int) bool { return f(lo + i) })
}

// Instrument builds the CMTPM/CMDRPM instrumented trace for the
// given request sites on a numDisks-disk subsystem.
func Instrument(program string, numDisks int, sites []tracegen.Site, opts Options) (*trace.Trace, *Plan, error) {
	if err := opts.Disk.Validate(); err != nil {
		return nil, nil, err
	}
	if err := tracegen.Check(sites, numDisks); err != nil {
		return nil, nil, err
	}
	var mech disk.Mechanism
	switch opts.Mode {
	case ModeTPM:
		mech = disk.TPM
	case ModeDRPM:
		mech = disk.DRPM
	default:
		return nil, nil, fmt.Errorf("insert: unknown mode %d", opts.Mode)
	}
	m := opts.model()
	p := opts.Disk
	// The gap decisions below query the disk power model once per idle
	// period per disk; the memoized table turns each of those pow-heavy
	// scans into array lookups with bit-identical results.
	tbl := disk.TableFor(p)
	top := tbl.ClampIndex(p.MaxRPM)
	svc := opts.fullSpeedMS()
	issue := tracegen.PredictedIssueMS(sites, m, svc)

	// Completion times, the predicted program end and the requests'
	// active energy.
	comp := make([]float64, len(sites))
	predEnd := 0.0
	var activeJ float64
	for i := range sites {
		busy := svc(sites[i].Bytes)
		comp[i] = issue[i] + busy
		if comp[i] > predEnd {
			predEnd = comp[i]
		}
		activeJ += tbl.ActivePowerIdx(top) * busy / 1e3
	}

	perDisk := make([][]int, numDisks)
	for i := range sites {
		perDisk[sites[i].Disk] = append(perDisk[sites[i].Disk], i)
	}

	// Both searches below run over non-decreasing sequences (comp,
	// and the CyclePos order Check verified), and one disk's ops ask
	// about ever later times, so each starts from its previous answer.
	var lastJ, lastAnchor int

	// timeToCycle converts a predicted wall time into a compute-cycle
	// position, snapping times that fall inside a service interval to
	// its completion (the application executes no iterations while
	// blocked on I/O).
	timeToCycle := func(t float64) int64 {
		// Find the last site whose completion is <= t.
		j := searchFrom(len(sites), lastJ, func(k int) bool { return comp[k] > t })
		lastJ = j
		var baseT float64
		var baseC int64
		if j > 0 {
			baseT = comp[j-1]
			baseC = sites[j-1].CyclePos
		}
		if t < baseT {
			t = baseT
		}
		c := baseC + m.CyclesForMS(t-baseT)
		if j < len(sites) && c > sites[j].CyclePos {
			c = sites[j].CyclePos
		}
		return c
	}
	// anchorFor returns the site index an op at cycle position c is
	// ordered against: the first site with CyclePos >= c.
	anchorFor := func(c int64) int {
		lastAnchor = searchFrom(len(sites), lastAnchor, func(k int) bool { return sites[k].CyclePos >= c })
		return lastAnchor
	}

	plan := &Plan{
		Mode:           opts.Mode,
		PredictedEndMS: predEnd,
		Levels:         make([][]int, numDisks),
		PredictedIdle:  make([][]float64, numDisks),
		EnergyJ:        activeJ,
		BaseEnergyJ:    activeJ,
	}

	// ops holds the inserted ops disk by disk, each disk's in
	// insertion order; runStart[d] is where disk d's run begins.
	var ops []pendingOp
	runStart := make([]int, numDisks+1)
	// addOp inserts a power op at predicted time t. afterSite >= 0
	// anchors the op just after that request (down-ops at a gap
	// start). notBefore >= 0 enforces a program-order floor: the op
	// must sort after that request and after any op anchored to it —
	// required for restore ops whose lead time reaches back into a
	// cluster of requests sharing one cycle position, where the
	// time-based anchor alone could order the restore before its own
	// gap's power-down.
	addOp := func(t float64, afterSite, notBefore int, op trace.PowerOp) {
		c := timeToCycle(t)
		it := pendingOp{pos: pos{cyc: c}, op: op}
		if afterSite >= 0 && c <= sites[afterSite].CyclePos {
			it.cyc = sites[afterSite].CyclePos
			it.anchor = afterSite
			it.prio = 1
		} else {
			it.anchor = anchorFor(c)
			it.prio = -1
		}
		if notBefore >= 0 {
			floorCyc := sites[notBefore].CyclePos
			if it.cyc < floorCyc ||
				(it.cyc == floorCyc && (it.anchor < notBefore || (it.anchor == notBefore && it.prio <= 1))) {
				it.pos = pos{cyc: floorCyc, anchor: notBefore, prio: 2}
			}
		}
		if ops == nil {
			// A gap gets at most two ops; reserve that on the first.
			ops = make([]pendingOp, 0, 2*(len(sites)+numDisks))
		}
		ops = append(ops, it)
	}

	for d := 0; d < numDisks; d++ {
		runStart[d] = len(ops)
		disk32 := int32(d)
		nGaps := len(perDisk[d]) + 1
		plan.Levels[d] = make([]int, nGaps)
		plan.PredictedIdle[d] = make([]float64, nGaps)
		for g := 0; g < nGaps; g++ {
			var start, end float64
			afterSite := -1 // site the down-op is anchored after
			trailing := g == nGaps-1
			if g == 0 {
				start = 0
			} else {
				si := perDisk[d][g-1]
				start = comp[si]
				afterSite = si
			}
			if trailing {
				end = predEnd
			} else {
				end = issue[perDisk[d][g]]
			}
			idle := end - start
			if idle < 0 {
				idle = 0
			}
			plan.PredictedIdle[d][g] = idle
			level, e := tbl.Decide(mech, idle, trailing)
			plan.Levels[d][g] = level
			plan.EnergyJ += e
			plan.BaseEnergyJ += p.IdleEnergyJ(idle)

			// Pre-activation is anchored a safety margin (a fraction
			// of the predicted idle length) ahead of the next
			// access, so a gap that comes out shorter than predicted
			// by up to that margin still hides the wake-up
			// transition. The power-mode choice itself uses the
			// unbiased estimate (what Table 3 compares).
			margin := idle * safetyPct / 100
			switch level {
			case p.MaxRPM: // stay at full speed
			case disk.Standby:
				addOp(start, afterSite, -1, trace.PowerOp{Disk: disk32, Kind: trace.OpSpinDown, PredictedIdleMS: idle})
				if !trailing && !opts.DisablePreactivation {
					up := end - p.SpinUpMS - margin - guardMS(m, p.SpinUpMS)
					if min := start + p.SpinDownMS; up < min {
						up = min
					}
					addOp(up, -1, afterSite, trace.PowerOp{Disk: disk32, Kind: trace.OpSpinUp})
				}
			default:
				addOp(start, afterSite, -1, trace.PowerOp{Disk: disk32, Kind: trace.OpSetRPM, RPM: int32(level), PredictedIdleMS: idle})
				if !trailing && !opts.DisablePreactivation {
					tr := p.TransitionTimeMS(level, p.MaxRPM)
					up := end - tr - margin - guardMS(m, tr)
					if min := start + p.TransitionTimeMS(p.MaxRPM, level); up < min {
						up = min
					}
					addOp(up, -1, afterSite, trace.PowerOp{Disk: disk32, Kind: trace.OpSetRPM, RPM: int32(p.MaxRPM)})
				}
			}
		}
	}
	runStart[numDisks] = len(ops)

	// Calls are recorded in insertion order, before merge may reorder
	// a run. Each is anchored to its op's site, clamped to the last.
	plan.Ops = len(ops)
	if len(sites) > 0 && len(ops) > 0 {
		plan.Calls = make([]Call, len(ops))
		for i := range ops {
			s := &sites[min(ops[i].anchor, len(sites)-1)]
			plan.Calls[i] = Call{Nest: int(s.Nest), Iter: s.Iter, Op: ops[i].op}
		}
	}
	runs := make([][]pendingOp, numDisks)
	for d := range runs {
		runs[d] = ops[runStart[d]:runStart[d+1]]
	}
	return opts.emit(program, numDisks, sites, runs), plan, nil
}

// Base builds the program's uninstrumented runtime trace: the stream
// Instrument emits, with no power calls. Of opts it reads the disk
// model (for the nominal arrivals), the cycle model and the file
// table.
func Base(program string, numDisks int, sites []tracegen.Site, opts Options) *trace.Trace {
	return opts.emit(program, numDisks, sites, nil)
}

// emit merges the sites with the runs of ops into the runtime trace,
// with jittered actual gaps. A request's nominal arrival charges every
// earlier request its full-speed service time. The runs are consumed.
func (o *Options) emit(program string, numDisks int, sites []tracegen.Site, runs [][]pendingOp) *trace.Trace {
	n := len(sites)
	for _, run := range runs {
		n += len(run)
	}
	m, svc := o.model(), o.fullSpeedMS()
	tr := &trace.Trace{Program: program, NumDisks: numDisks, Files: o.Files, Events: make([]trace.Event, n)}
	var prevCyc int64
	var arrival float64
	i := 0
	merge(sites, runs, func(at pos, op *trace.PowerOp) {
		gapCyc := max(at.cyc-prevCyc, 0)
		prevCyc = at.cyc
		nest := 0
		if at.anchor < len(sites) {
			nest = int(sites[at.anchor].Nest)
		} else if len(sites) > 0 {
			nest = int(sites[len(sites)-1].Nest)
		}
		gap := m.ActualMSIn(gapCyc, uint64(i), nest)
		arrival += gap
		// The events are zeroed already: writing each field in place
		// saves copying a whole event built on the stack.
		e := &tr.Events[i]
		i++
		e.GapMS = gap
		if op != nil {
			e.Kind = trace.EvPowerOp
			e.Op = *op
			return
		}
		s := &sites[at.anchor]
		e.Kind = trace.EvRequest
		r := &e.Req
		r.ArrivalMS = arrival
		r.Disk, r.Block, r.Bytes, r.Kind = s.Disk, s.Block, s.Bytes, s.Kind
		r.File, r.Unit, r.Nest, r.Iter = s.File, s.Unit, s.Nest, s.Iter
		arrival += svc(s.Bytes)
	})
	return tr
}
