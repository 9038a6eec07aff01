package insert

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/policy"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
)

// rrSites builds n round-robin 64KB request sites over nd disks with
// the given compute think time between requests.
func rrSites(nd, n int, thinkMS float64) []tracegen.Site {
	m := cycles.New(cycles.DefaultClockHz, 0, 0)
	thinkCyc := m.CyclesForMS(thinkMS)
	out := make([]tracegen.Site, n)
	for i := range out {
		out[i] = tracegen.Site{
			Nest: 0, Iter: int64(i),
			Unit: int64(i),
			Disk: int32(i % nd), Block: int64(i/nd) * 128, Bytes: 65536,
			Kind:     trace.Read,
			CyclePos: int64(i) * thinkCyc,
		}
	}
	return out
}

// burstSites sends perBurst consecutive requests to each disk in
// turn, giving each disk long idle stretches.
func burstSites(nd, perBurst int, thinkMS float64) []tracegen.Site {
	m := cycles.New(cycles.DefaultClockHz, 0, 0)
	thinkCyc := m.CyclesForMS(thinkMS)
	var out []tracegen.Site
	i := 0
	for d := 0; d < nd; d++ {
		for k := 0; k < perBurst; k++ {
			out = append(out, tracegen.Site{
				Nest: int32(d), Iter: int64(k), Unit: int64(i),
				Disk: int32(d), Block: int64(k) * 128, Bytes: 65536,
				Kind: trace.Read, CyclePos: int64(i) * thinkCyc,
			})
			i++
		}
	}
	return out
}

func baseTrace(nd int, ss []tracegen.Site, m *cycles.Model, p disk.Params) *trace.Trace {
	return Base("t", nd, ss, Options{Disk: p, Model: m})
}

func TestCMDRPMCloseToOracleNoJitter(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 1)
	ss := rrSites(8, 2000, 3.44)

	tr, plan, err := Instrument("rr", 8, ss, Options{Mode: ModeDRPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.Ops == 0 {
		t.Fatal("no ops inserted")
	}
	cm, err := sim.Run(tr, sim.Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	bt := baseTrace(8, ss, m, p)
	base, _ := sim.Run(bt, sim.Config{Disk: p})
	oracle, _ := sim.Run(bt, sim.Config{Disk: p, Policy: policy.NewIDRPM(p)})

	// Energy: CMDRPM must land close to the oracle and far below base.
	if cm.EnergyJ > base.EnergyJ*0.7 {
		t.Errorf("CMDRPM saves too little: %.0f vs base %.0f", cm.EnergyJ, base.EnergyJ)
	}
	if cm.EnergyJ < oracle.EnergyJ*0.98 {
		t.Errorf("CMDRPM beats the oracle: %.0f vs %.0f", cm.EnergyJ, oracle.EnergyJ)
	}
	if cm.EnergyJ > oracle.EnergyJ*1.15 {
		t.Errorf("CMDRPM too far from oracle: %.0f vs %.0f", cm.EnergyJ, oracle.EnergyJ)
	}
	// Execution time: near-zero penalty (power-call overheads only).
	penalty := cm.ExecMS/base.ExecMS - 1
	if penalty > 0.02 {
		t.Errorf("CMDRPM penalty %.2f%%", penalty*100)
	}
	if cm.TotalWaitMS > base.ExecMS*0.001 {
		t.Errorf("CMDRPM wait %.1fms", cm.TotalWaitMS)
	}
}

func TestCMDRPMWithJitterStillNearOracle(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 20, 7)
	ss := rrSites(8, 2000, 3.44)
	tr, _, err := Instrument("rr", 8, ss, Options{Mode: ModeDRPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := sim.Run(tr, sim.Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	bt := baseTrace(8, ss, m, p)
	base, _ := sim.Run(bt, sim.Config{Disk: p})
	penalty := cm.ExecMS/base.ExecMS - 1
	if penalty > 0.05 {
		t.Errorf("CMDRPM penalty with jitter %.2f%%", penalty*100)
	}
	if cm.EnergyJ > base.EnergyJ*0.75 {
		t.Errorf("CMDRPM with jitter saves too little: %.0f vs %.0f", cm.EnergyJ, base.EnergyJ)
	}
}

func TestCMTPMNoOpsOnShortGaps(t *testing.T) {
	p := disk.DefaultParams()
	ss := rrSites(8, 500, 3.44)
	tr, plan, err := Instrument("rr", 8, ss, Options{Mode: ModeTPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	// 73ms gaps are far below the TPM break-even; only trailing gaps
	// could possibly qualify, and at ~70ms they do not.
	if plan.Ops != 0 {
		t.Errorf("CMTPM inserted %d ops on short gaps", plan.Ops)
	}
	if tr.NumPowerOps() != 0 {
		t.Error("trace contains ops")
	}
}

func TestCMTPMSavesOnBurstsWithoutPenalty(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 3)
	ss := burstSites(4, 3000, 10) // 30s bursts per disk
	tr, plan, err := Instrument("burst", 4, ss, Options{Mode: ModeTPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ops == 0 {
		t.Fatal("CMTPM inserted nothing on long gaps")
	}
	cm, err := sim.Run(tr, sim.Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	bt := baseTrace(4, ss, m, p)
	base, _ := sim.Run(bt, sim.Config{Disk: p})
	rtpm, _ := sim.Run(bt, sim.Config{Disk: p, Policy: policy.NewTPM(p)})

	if cm.EnergyJ >= base.EnergyJ {
		t.Errorf("CMTPM saved nothing: %.0f vs %.0f", cm.EnergyJ, base.EnergyJ)
	}
	// Proactive TPM must beat reactive TPM on both axes.
	if cm.EnergyJ >= rtpm.EnergyJ {
		t.Errorf("CMTPM %.0f not better than reactive TPM %.0f", cm.EnergyJ, rtpm.EnergyJ)
	}
	if cm.ExecMS >= rtpm.ExecMS {
		t.Errorf("CMTPM exec %.0f not better than reactive TPM %.0f", cm.ExecMS, rtpm.ExecMS)
	}
	penalty := cm.ExecMS/base.ExecMS - 1
	if penalty > 0.02 {
		t.Errorf("CMTPM penalty %.2f%%", penalty*100)
	}
}

func TestPreactivationAblation(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 3)
	ss := burstSites(4, 2000, 10)
	on, _, err := Instrument("b", 4, ss, Options{Mode: ModeTPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	off, _, err := Instrument("b", 4, ss, Options{Mode: ModeTPM, Disk: p, Model: m, DisablePreactivation: true})
	if err != nil {
		t.Fatal(err)
	}
	ron, _ := sim.Run(on, sim.Config{Disk: p})
	roff, _ := sim.Run(off, sim.Config{Disk: p})
	// Without pre-activation the first access of each burst pays the
	// spin-up delay.
	if roff.ExecMS <= ron.ExecMS {
		t.Errorf("no-preactivation exec %.0f <= preactivated %.0f", roff.ExecMS, ron.ExecMS)
	}
	if roff.TotalWaitMS < p.SpinUpMS {
		t.Errorf("no-preactivation wait %.0fms, expected at least one spin-up", roff.TotalWaitMS)
	}
	if ron.TotalWaitMS > 1 {
		t.Errorf("preactivated wait %.1fms", ron.TotalWaitMS)
	}
}

func TestPlanShape(t *testing.T) {
	p := disk.DefaultParams()
	ss := rrSites(4, 40, 3.44)
	_, plan, err := Instrument("rr", 4, ss, Options{Mode: ModeDRPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != ModeDRPM {
		t.Error("mode")
	}
	// 4 disks x 10 requests -> 11 gaps each.
	if len(plan.Levels) != 4 || len(plan.PredictedIdle) != 4 {
		t.Fatalf("plan covers %d, %d disks", len(plan.Levels), len(plan.PredictedIdle))
	}
	for d := 0; d < 4; d++ {
		if len(plan.Levels[d]) != 11 || len(plan.PredictedIdle[d]) != 11 {
			t.Fatalf("disk %d plan arrays wrong length", d)
		}
		for g, l := range plan.Levels[d] {
			if l != 0 && p.LevelIndex(l) < 0 {
				t.Errorf("disk %d gap %d level %d invalid", d, g, l)
			}
			if plan.PredictedIdle[d][g] < 0 {
				t.Error("negative predicted idle")
			}
		}
	}
	if plan.PredictedEndMS <= 0 {
		t.Error("predicted end not set")
	}
}

func TestInstrumentedRequestsMatchSites(t *testing.T) {
	p := disk.DefaultParams()
	ss := rrSites(8, 100, 3.44)
	tr, _, err := Instrument("rr", 8, ss, Options{Mode: ModeDRPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []trace.Request
	for _, e := range tr.Events {
		if e.Kind == trace.EvRequest {
			reqs = append(reqs, e.Req)
		}
	}
	if len(reqs) != len(ss) {
		t.Fatalf("requests = %d, want %d", len(reqs), len(ss))
	}
	for i, r := range reqs {
		s := ss[i]
		if r.Disk != s.Disk || r.Block != s.Block || r.Bytes != s.Bytes || r.Unit != s.Unit {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, r, s)
		}
	}
}

func TestComputeTimePreservedByInsertion(t *testing.T) {
	// The inserted ops split compute gaps; the total compute time of
	// the instrumented trace must equal the base trace (no jitter).
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 5)
	ss := rrSites(8, 500, 3.44)
	tr, _, err := Instrument("rr", 8, ss, Options{Mode: ModeDRPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	bt := baseTrace(8, ss, m, p)
	var a, b float64
	for _, e := range tr.Events {
		a += e.GapMS
	}
	for _, e := range bt.Events {
		b += e.GapMS
	}
	if math.Abs(a-b) > 1e-6 {
		t.Errorf("total compute changed: %.3f vs %.3f", a, b)
	}
}

func TestDownOpsFollowTheirRequest(t *testing.T) {
	p := disk.DefaultParams()
	ss := rrSites(2, 10, 60) // long gaps so every gap dips
	tr, _, err := Instrument("rr", 2, ss, Options{Mode: ModeDRPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	// After each request to disk d, the next event mentioning disk d
	// must not be a set_rpm(max) before a down-op (ordering sanity):
	// specifically a down op for d appears after d's request and
	// before d's next request.
	lastReq := -1
	for i, e := range tr.Events {
		if e.Kind == trace.EvRequest && e.Req.Disk == 0 {
			if lastReq >= 0 {
				sawDown := false
				for j := lastReq + 1; j < i; j++ {
					ev := tr.Events[j]
					if ev.Kind == trace.EvPowerOp && ev.Op.Disk == 0 && int(ev.Op.RPM) != p.MaxRPM {
						sawDown = true
					}
				}
				if !sawDown {
					t.Fatalf("no down-op for disk 0 between requests at %d and %d", lastReq, i)
				}
			}
			lastReq = i
		}
	}
}

func TestInstrumentErrors(t *testing.T) {
	p := disk.DefaultParams()
	bad := p
	bad.RPMStep = 0
	if _, _, err := Instrument("x", 2, rrSites(2, 4, 1), Options{Mode: ModeDRPM, Disk: bad}); err == nil {
		t.Error("bad params accepted")
	}
	ss := rrSites(2, 4, 1)
	ss[0].Disk = 9
	if _, _, err := Instrument("x", 2, ss, Options{Mode: ModeDRPM, Disk: p}); err == nil {
		t.Error("bad sites accepted")
	}
}

func TestModeStrings(t *testing.T) {
	if ModeTPM.String() != "CMTPM" || ModeDRPM.String() != "CMDRPM" {
		t.Error("mode strings")
	}
}

func TestEstimateMatchesManualCase(t *testing.T) {
	p := disk.DefaultParams()
	// One disk, two requests 200ms apart: one dip gap plus leading
	// and trailing gaps of zero length.
	ss := []tracegen.Site{
		{Disk: 0, Bytes: 65536, Kind: trace.Read, CyclePos: 0},
		{Disk: 0, Bytes: 65536, Kind: trace.Read, CyclePos: cycles.New(cycles.DefaultClockHz, 0, 0).CyclesForMS(200)},
	}
	_, plan, err := Instrument("m", 1, ss, Options{Mode: ModeDRPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	est := plan.EnergyJ
	// Manual: 2 services active + gap0 idle(0) + dip(gap1) + trailing 0.
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	gap1 := plan.PredictedIdle[0][1]
	level := plan.Levels[0][1]
	want := 2*p.ActiveW*svc/1e3 + p.DipEnergyJ(gap1, level)
	if math.Abs(est-want) > 1e-9 {
		t.Errorf("estimate %g, want %g", est, want)
	}
	// Base estimate: idling through the same gaps.
	baseWant := 2*p.ActiveW*svc/1e3 + p.IdleEnergyJ(gap1)
	if got := plan.BaseEnergyJ; math.Abs(got-baseWant) > 1e-9 {
		t.Errorf("base estimate %g, want %g", got, baseWant)
	}
	if est >= plan.BaseEnergyJ {
		t.Error("dip estimate not below base")
	}
}

func TestEstimateTPMStandbyGaps(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 0)
	// One long gap well above break-even, plus a trailing gap.
	long := m.CyclesForMS(p.TPMBreakEvenMS() * 3)
	ss := []tracegen.Site{
		{Disk: 0, Bytes: 65536, Kind: trace.Read, CyclePos: 0},
		{Disk: 0, Bytes: 65536, Kind: trace.Read, CyclePos: long},
	}
	_, plan, err := Instrument("m", 1, ss, Options{Mode: ModeTPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Levels[0][1] != 0 {
		t.Fatalf("long gap not planned for standby: %v", plan.Levels[0])
	}
	est := plan.EnergyJ
	base := plan.BaseEnergyJ
	if est >= base {
		t.Errorf("TPM estimate %g not below base %g", est, base)
	}
}

// TestInstrumentOrderingInvariant generates randomized site streams —
// including clusters of requests sharing one cycle position, the
// shape that once broke restore-op ordering — and checks that in the
// instrumented trace every disk's power ops alternate correctly: a
// down-op is always restored before the disk's next request (or is
// the trailing dip), and under zero jitter no request ever waits.
func TestInstrumentOrderingInvariant(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 0)
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 40; trial++ {
		nd := 2 + rng.Intn(7)
		var ss []tracegen.Site
		var cyc int64
		n := 30 + rng.Intn(200)
		for i := 0; i < n; i++ {
			// Random cluster: several requests at one cycle position.
			cyc += m.CyclesForMS(rng.Float64() * 30)
			cluster := 1 + rng.Intn(4)
			for c := 0; c < cluster && i < n; c++ {
				ss = append(ss, tracegen.Site{
					Unit: int64(i), Iter: int64(i),
					Disk: int32(rng.Intn(nd)), Block: int64(i) * 128, Bytes: 65536,
					Kind: trace.Read, CyclePos: cyc,
				})
				i++
			}
			i--
		}
		tr, _, err := Instrument("rand", nd, ss, Options{Mode: ModeDRPM, Disk: p, Model: m})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Per-disk ordering: no request may arrive while a down-level
		// op is pending without a restore.
		pendingDown := make([]bool, nd)
		for i, e := range tr.Events {
			if e.Kind == trace.EvPowerOp {
				if int(e.Op.RPM) == p.MaxRPM {
					pendingDown[e.Op.Disk] = false
				} else {
					pendingDown[e.Op.Disk] = true
				}
				continue
			}
			if pendingDown[e.Req.Disk] {
				t.Fatalf("trial %d: event %d: request on disk %d with unrestored dip", trial, i, e.Req.Disk)
			}
		}
		// And dynamically: zero jitter means zero waits.
		res, err := sim.Run(tr, sim.Config{Disk: p})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.TotalWaitMS > 1e-6 {
			t.Fatalf("trial %d: instrumented trace waited %.3fms under zero jitter", trial, res.TotalWaitMS)
		}
	}
}

// mergedItem is a stream element being assembled: a request site or
// an inserted op, positioned by compute-cycle position with tie
// breaking that preserves program order around anchors.
type mergedItem struct {
	cyc    int64
	anchor int // site index the item is anchored to
	prio   int // -1: op before anchor; 0: the request; +1: op after anchor
	site   int // site index for requests
	op     trace.PowerOp
	isOp   bool
}

// stableSortInstrument is Instrument as it was before the merge: it
// collects the sites and every inserted op as mergedItems and orders
// them with one global stable sort. Its gap decisions and energy
// estimates are the compiler's before disk.Table.Decide, written out
// over the Params methods. It is the reference the merge and the
// shared decision rule must reproduce exactly.
func stableSortInstrument(program string, numDisks int, sites []tracegen.Site, opts Options) (*trace.Trace, *Plan, error) {
	if err := opts.Disk.Validate(); err != nil {
		return nil, nil, err
	}
	if err := tracegen.Check(sites, numDisks); err != nil {
		return nil, nil, err
	}
	m := opts.model()
	p := opts.Disk
	svc := func(b int64) float64 { return p.ServiceTimeMS(p.MaxRPM, b) }
	issue := tracegen.PredictedIssueMS(sites, m, svc)

	// Completion times and the predicted program end.
	comp := make([]float64, len(sites))
	predEnd := 0.0
	for i := range sites {
		comp[i] = issue[i] + svc(sites[i].Bytes)
		if comp[i] > predEnd {
			predEnd = comp[i]
		}
	}

	perDisk := make([][]int, numDisks)
	for i := range sites {
		perDisk[sites[i].Disk] = append(perDisk[sites[i].Disk], i)
	}

	// timeToCycle converts a predicted wall time into a compute-cycle
	// position, snapping times that fall inside a service interval to
	// its completion (the application executes no iterations while
	// blocked on I/O).
	timeToCycle := func(t float64) int64 {
		// Find the last site whose completion is <= t.
		j := sort.Search(len(sites), func(k int) bool { return comp[k] > t })
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
		return sort.Search(len(sites), func(k int) bool { return sites[k].CyclePos >= c })
	}

	plan := &Plan{
		Mode:           opts.Mode,
		PredictedEndMS: predEnd,
		Levels:         make([][]int, numDisks),
		PredictedIdle:  make([][]float64, numDisks),
	}

	items := make([]mergedItem, 0, len(sites)*2)
	for i := range sites {
		items = append(items, mergedItem{cyc: sites[i].CyclePos, anchor: i, prio: 0, site: i})
	}
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
		it := mergedItem{cyc: c, op: op, isOp: true}
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
				it.cyc = floorCyc
				it.anchor = notBefore
				it.prio = 2
			}
		}
		items = append(items, it)
		plan.Ops++
		anchor := it.anchor
		if anchor >= len(sites) {
			anchor = len(sites) - 1
		}
		if anchor >= 0 {
			plan.Calls = append(plan.Calls, Call{Nest: int(sites[anchor].Nest), Iter: sites[anchor].Iter, Op: op})
		}
	}

	for d := 0; d < numDisks; d++ {
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
			plan.Levels[d][g] = p.MaxRPM

			// Pre-activation is anchored a safety margin (a fraction
			// of the predicted idle length) ahead of the next
			// access, so a gap that comes out shorter than predicted
			// by up to that margin still hides the wake-up
			// transition. The power-mode choice itself uses the
			// unbiased estimate (what Table 3 compares).
			margin := idle * safetyPct / 100
			switch opts.Mode {
			case ModeDRPM:
				var level int
				if trailing {
					level, _ = p.BestRPMForTrailingIdle(idle)
				} else {
					level, _ = p.BestRPMForIdle(idle)
				}
				if level != p.MaxRPM {
					plan.Levels[d][g] = level
					addOp(start, afterSite, -1, trace.PowerOp{Disk: int32(d), Kind: trace.OpSetRPM, RPM: int32(level), PredictedIdleMS: idle})
					if !trailing && !opts.DisablePreactivation {
						tr := p.TransitionTimeMS(level, p.MaxRPM)
						up := end - tr - margin - guardMS(m, tr)
						if min := start + p.TransitionTimeMS(p.MaxRPM, level); up < min {
							up = min
						}
						addOp(up, -1, afterSite, trace.PowerOp{Disk: int32(d), Kind: trace.OpSetRPM, RPM: int32(p.MaxRPM)})
					}
				}
			case ModeTPM:
				worthIt := false
				if trailing {
					worthIt = p.TrailingStandbyWins(idle)
				} else {
					worthIt = p.StandbyEnergyJ(idle) < p.IdleEnergyJ(idle)
				}
				if worthIt {
					plan.Levels[d][g] = 0
					addOp(start, afterSite, -1, trace.PowerOp{Disk: int32(d), Kind: trace.OpSpinDown, PredictedIdleMS: idle})
					if !trailing && !opts.DisablePreactivation {
						up := end - p.SpinUpMS - margin - guardMS(m, p.SpinUpMS)
						if min := start + p.SpinDownMS; up < min {
							up = min
						}
						addOp(up, -1, afterSite, trace.PowerOp{Disk: int32(d), Kind: trace.OpSpinUp})
					}
				}
			default:
				return nil, nil, fmt.Errorf("insert: unknown mode %d", opts.Mode)
			}
		}
	}

	// The energy estimates, summed as the compiler once summed them
	// from the finished plan: the active energy of every request, then
	// each gap's energy at its planned level, disk by disk.
	max0 := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	for i := range sites {
		e := p.ActivePowerAt(p.MaxRPM) * p.ServiceTimeMS(p.MaxRPM, sites[i].Bytes) / 1e3
		plan.EnergyJ += e
		plan.BaseEnergyJ += e
	}
	for d := range plan.Levels {
		for g, level := range plan.Levels[d] {
			idle := plan.PredictedIdle[d][g]
			trailing := g == len(plan.Levels[d])-1
			plan.BaseEnergyJ += p.IdleEnergyJ(idle)
			switch {
			case level == p.MaxRPM:
				plan.EnergyJ += p.IdleEnergyJ(idle)
			case level == 0: // standby (TPM)
				if trailing {
					plan.EnergyJ += p.SpinDownJ + p.StandbyW*max0(idle-p.SpinDownMS)/1e3
				} else {
					plan.EnergyJ += p.StandbyEnergyJ(idle)
				}
			default: // RPM dip
				if trailing {
					tr := p.TransitionTimeMS(p.MaxRPM, level)
					plan.EnergyJ += p.TransitionEnergyJ(p.MaxRPM, level) +
						p.IdlePowerAt(level)*max0(idle-tr)/1e3
				} else {
					plan.EnergyJ += p.DipEnergyJ(idle, level)
				}
			}
		}
	}

	sort.SliceStable(items, func(a, b int) bool {
		ia, ib := &items[a], &items[b]
		if ia.cyc != ib.cyc {
			return ia.cyc < ib.cyc
		}
		if ia.anchor != ib.anchor {
			return ia.anchor < ib.anchor
		}
		return ia.prio < ib.prio
	})

	// Emit the instrumented trace with jittered actual gaps.
	tr := &trace.Trace{Program: program, NumDisks: numDisks}
	tr.Events = make([]trace.Event, 0, len(items))
	var prevCyc int64
	var arrival float64
	for i, it := range items {
		gapCyc := it.cyc - prevCyc
		if gapCyc < 0 {
			gapCyc = 0
		}
		prevCyc = it.cyc
		nest := 0
		if it.anchor < len(sites) {
			nest = int(sites[it.anchor].Nest)
		} else if len(sites) > 0 {
			nest = int(sites[len(sites)-1].Nest)
		}
		gap := m.ActualMSIn(gapCyc, uint64(i), nest)
		arrival += gap
		if it.isOp {
			tr.Events = append(tr.Events, trace.Event{Kind: trace.EvPowerOp, GapMS: gap, Op: it.op})
			continue
		}
		s := sites[it.site]
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.EvRequest,
			GapMS: gap,
			Req: trace.Request{
				ArrivalMS: arrival,
				Disk:      s.Disk, Block: s.Block, Bytes: s.Bytes, Kind: s.Kind,
				File: s.File, Unit: s.Unit, Nest: s.Nest, Iter: s.Iter,
			},
		})
		arrival += svc(s.Bytes)
	}
	return tr, plan, nil
}

// TestInstrumentMatchesStableSort compares Instrument with the
// stable-sort reference on seeded random site streams: 1–8 disks,
// clusters of sites at one cycle position, both modes, with and
// without pre-activation, and jittered, biased cycle models. The
// guard grows with the noise, so the 50% level puts about three times
// as many pre-activations on their gap's floor as no noise does.
// Trace and plan must be deeply equal.
func TestInstrumentMatchesStableSort(t *testing.T) {
	p := disk.DefaultParams()
	rng := rand.New(rand.NewSource(1717))
	for trial := 0; trial < 300; trial++ {
		nd := 1 + rng.Intn(8)
		m := cycles.New(cycles.DefaultClockHz, []float64{0, 5, 10, 50}[rng.Intn(4)], uint64(rng.Int63()))
		m.BiasPct = float64(rng.Intn(3)) * 4
		var ss []tracegen.Site
		var cyc int64
		for n := rng.Intn(160); len(ss) < n; {
			cyc += m.CyclesForMS(rng.ExpFloat64() * []float64{0.5, 5, 60}[rng.Intn(3)])
			for c := 1 + rng.Intn(4); c > 0 && len(ss) < n; c-- {
				ss = append(ss, tracegen.Site{
					Nest: int32(len(ss) / 40), Iter: int64(len(ss)), Unit: int64(len(ss)),
					Disk: int32(rng.Intn(nd)), Block: int64(len(ss)) * 128, Bytes: int64(1+rng.Intn(16)) * 8192,
					Kind: trace.ReqKind(rng.Intn(2)), CyclePos: cyc,
				})
			}
		}
		opts := Options{
			Mode: Mode(rng.Intn(2)), Disk: p, Model: m,
			DisablePreactivation: rng.Intn(4) == 0,
		}
		name := fmt.Sprintf("trial %d (%d disks, %d sites, %+v)", trial, nd, len(ss), opts)
		wantTr, wantPlan, err := stableSortInstrument("r", nd, ss, opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		gotTr, gotPlan, err := Instrument("r", nd, ss, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(gotPlan, wantPlan) {
			t.Fatalf("%s: plan differs from the stable-sort reference", name)
		}
		if !reflect.DeepEqual(gotTr, wantTr) {
			t.Fatalf("%s: trace differs from the stable-sort reference", name)
		}
	}
}

// TestMergeHandBuiltRuns feeds merge per-disk runs that are out of
// order or tie across disks and checks the visit order against a
// stable sort of the sites followed by every run. Each op carries a
// sequence number, so equal positions stay distinguishable.
func TestMergeHandBuiltRuns(t *testing.T) {
	sites := []tracegen.Site{{CyclePos: 0}, {CyclePos: 10}, {CyclePos: 10}, {CyclePos: 30}}
	seq := 0
	op := func(disk int, cyc int64, anchor, prio int) pendingOp {
		seq++
		return pendingOp{pos: pos{cyc: cyc, anchor: anchor, prio: prio}, op: trace.PowerOp{Disk: int32(disk), PredictedIdleMS: float64(seq)}}
	}
	type mergeCase struct {
		name  string
		sites []tracegen.Site
		runs  [][]pendingOp
	}
	cases := []mergeCase{
		{"sorted", sites, [][]pendingOp{
			{op(0, 0, 0, 1), op(0, 10, 1, -1), op(0, 30, 4, -1)},
			{op(1, 10, 2, 1)},
		}},
		{"out of order", sites, [][]pendingOp{
			{op(0, 30, 3, -1), op(0, 0, 0, 1), op(0, 10, 2, 2), op(0, 10, 1, -1)},
			{},
			{op(2, 20, 3, -1), op(2, 5, 1, -1)},
		}},
		{"ties across disks", sites, [][]pendingOp{
			{op(0, 10, 1, 1), op(0, 10, 2, 2)},
			{op(1, 10, 1, 1), op(1, 10, 2, 2)},
			{op(2, 10, 1, 1)},
		}},
		{"ties within an unsorted run", sites, [][]pendingOp{
			{op(0, 30, 3, -1), op(0, 10, 1, 1), op(0, 10, 1, 1), op(0, 0, 0, -1), op(0, 10, 1, 1)},
			{op(1, 10, 1, 1), op(1, 0, 0, -1)},
		}},
		{"ops past the last site", sites, [][]pendingOp{
			{op(0, 40, 4, -1), op(0, 35, 4, -1)},
			{op(1, 40, 4, -1)},
		}},
		{"no sites", nil, [][]pendingOp{
			{op(0, 5, 0, -1)},
			{op(1, 5, 0, -1), op(1, 0, 0, -1)},
		}},
	}
	// A run long enough that an unstable sort would reorder its ties.
	rng := rand.New(rand.NewSource(5))
	long := make([][]pendingOp, 2)
	for d := range long {
		for i := 0; i < 60; i++ {
			anchor := rng.Intn(len(sites) + 1)
			cyc := int64(40)
			if anchor < len(sites) {
				cyc = sites[anchor].CyclePos
			}
			long[d] = append(long[d], op(d, cyc, anchor, []int{-1, 1, 2}[rng.Intn(3)]))
		}
	}
	cases = append(cases, mergeCase{"many ties in long unsorted runs", sites, long})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want []mergedItem
			for i, s := range c.sites {
				want = append(want, mergedItem{cyc: s.CyclePos, anchor: i, site: i})
			}
			for _, run := range c.runs {
				for _, o := range run {
					want = append(want, mergedItem{cyc: o.cyc, anchor: o.anchor, prio: o.prio, op: o.op, isOp: true})
				}
			}
			sort.SliceStable(want, func(a, b int) bool {
				ia, ib := &want[a], &want[b]
				if ia.cyc != ib.cyc {
					return ia.cyc < ib.cyc
				}
				if ia.anchor != ib.anchor {
					return ia.anchor < ib.anchor
				}
				return ia.prio < ib.prio
			})
			var got []mergedItem
			merge(c.sites, c.runs, func(at pos, o *trace.PowerOp) {
				it := mergedItem{cyc: at.cyc, anchor: at.anchor, prio: at.prio}
				if o != nil {
					it.op, it.isOp = *o, true
				} else {
					it.site = at.anchor
				}
				got = append(got, it)
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("merge order differs from the stable sort:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
