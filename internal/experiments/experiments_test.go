package experiments

import (
	"strings"
	"testing"
)

func TestTable1Renders(t *testing.T) {
	s := NewSuite()
	out := s.Table1()
	for _, want := range []string{"IBM Ultrastar 36Z15", "15000", "13.5 W", "10.9 sec", "64 KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	tb, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	for _, b := range s.Benchmarks {
		for _, col := range []string{"Requests", "EnergyJ", "ExecMS"} {
			got, _ := tb.Value(b.Name, col)
			want, _ := tb.Value(b.Name, "paper:"+col)
			if want == 0 || got/want < 0.88 || got/want > 1.12 {
				t.Errorf("%s %s = %.0f, paper %.0f", b.Name, col, got, want)
			}
		}
	}
}

func TestFigures34Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	fig3, fig4, err := s.Figures34()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s\n%s", fig3, fig4)

	get := func(tb interface {
		Value(string, string) (float64, bool)
	}, row, col string) float64 {
		v, ok := tb.Value(row, col)
		if !ok {
			t.Fatalf("missing %s/%s", row, col)
		}
		return v
	}

	// Figure 3 expectations (paper: TPM/ITPM no savings; DRPM ~0.74;
	// CMDRPM ~0.54; IDRPM ~0.49 on average).
	avg := "average"
	if v := get(fig3, avg, "TPM"); v < 0.98 || v > 1.02 {
		t.Errorf("avg TPM energy = %.3f, want ~1", v)
	}
	if v := get(fig3, avg, "ITPM"); v < 0.97 || v > 1.01 {
		t.Errorf("avg ITPM energy = %.3f, want ~1", v)
	}
	drpm := get(fig3, avg, "DRPM")
	cmdrpm := get(fig3, avg, "CMDRPM")
	idrpm := get(fig3, avg, "IDRPM")
	if !(idrpm < cmdrpm && cmdrpm < drpm && drpm < 0.9) {
		t.Errorf("energy ordering: drpm=%.3f cmdrpm=%.3f idrpm=%.3f", drpm, cmdrpm, idrpm)
	}
	if idrpm < 0.40 || idrpm > 0.60 {
		t.Errorf("avg IDRPM = %.3f, paper ~0.49", idrpm)
	}
	if cmdrpm-idrpm > 0.10 {
		t.Errorf("CMDRPM %.3f too far from IDRPM %.3f", cmdrpm, idrpm)
	}

	// Figure 4 expectations (paper: DRPM +15.9%; others ~1.0).
	if v := get(fig4, avg, "DRPM"); v < 1.05 || v > 1.35 {
		t.Errorf("avg DRPM time = %.3f, paper ~1.16", v)
	}
	if v := get(fig4, avg, "CMDRPM"); v > 1.05 {
		t.Errorf("avg CMDRPM time = %.3f, want ~1", v)
	}
	for _, sc := range []string{"TPM", "ITPM", "IDRPM"} {
		if v := get(fig4, avg, sc); v < 0.999 || v > 1.01 {
			t.Errorf("avg %s time = %.3f, want 1", sc, v)
		}
	}
}

func TestTable3InBand(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	tb, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	for _, b := range s.Benchmarks {
		v, _ := tb.Value(b.Name, "mispredicted%")
		if v < 1 || v > 40 {
			t.Errorf("%s misprediction %.2f%% out of band", b.Name, v)
		}
	}
}

func TestFigures56Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	fig5, fig6, err := s.Figures56()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s\n%s", fig5, fig6)
	// CMDRPM delivers substantial savings at every stripe size and
	// tracks the oracle throughout (the paper's "consistent across a
	// wide range of stripe sizes").
	for _, r := range fig5.Rows {
		cm := r.Values[fig5.Col("CMDRPM")]
		id := r.Values[fig5.Col("IDRPM")]
		if cm > 0.75 {
			t.Errorf("CMDRPM saves too little at %s: %.3f", r.Label, cm)
		}
		if cm-id > 0.12 {
			t.Errorf("CMDRPM %.3f far from IDRPM %.3f at %s", cm, id, r.Label)
		}
	}
	// CMDRPM never slows execution appreciably.
	for _, r := range fig6.Rows {
		if v := r.Values[fig6.Col("CMDRPM")]; v > 1.06 {
			t.Errorf("CMDRPM time %.3f at %s", v, r.Label)
		}
	}
	// DRPM's time penalty worsens as the stripe size grows (the
	// paper's observation).
	first := fig6.Rows[0].Values[fig6.Col("DRPM")]
	last := fig6.Rows[len(fig6.Rows)-1].Values[fig6.Col("DRPM")]
	if last <= first {
		t.Errorf("DRPM penalty did not grow with stripe size: %.3f -> %.3f", first, last)
	}
}

func TestFigures78Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	fig7, fig8, err := s.Figures78()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s\n%s", fig7, fig8)
	// CMDRPM savings grow with the number of disks and track IDRPM.
	rows := fig7.Rows
	firstSave := 1 - rows[0].Values[fig7.Col("CMDRPM")]
	lastSave := 1 - rows[len(rows)-1].Values[fig7.Col("CMDRPM")]
	if lastSave <= firstSave {
		t.Errorf("CMDRPM savings did not grow with disks: %.3f -> %.3f", firstSave, lastSave)
	}
	for _, r := range rows {
		cm := r.Values[fig7.Col("CMDRPM")]
		id := r.Values[fig7.Col("IDRPM")]
		if cm-id > 0.12 {
			t.Errorf("%s: CMDRPM %.3f far from IDRPM %.3f", r.Label, cm, id)
		}
	}
	// Execution time stays flat for CMDRPM across factors.
	for _, r := range fig8.Rows {
		if v := r.Values[fig8.Col("CMDRPM")]; v > 1.06 {
			t.Errorf("CMDRPM time %.3f at %s", v, r.Label)
		}
	}
}

func TestFigure13Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	tb, err := s.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	get := func(row, col string) float64 {
		v, ok := tb.Value(row, col)
		if !ok {
			t.Fatalf("missing %s/%s", row, col)
		}
		return v
	}
	// galgel gains nothing from any transformation.
	for _, col := range []string{"LF/CMDRPM", "TL/CMDRPM", "LF+DL/CMDRPM", "TL+DL/CMDRPM"} {
		if d := get("galgel", col) - get("galgel", "orig/CMDRPM"); d < -0.02 || d > 0.02 {
			t.Errorf("galgel %s differs from orig by %.3f", col, d)
		}
	}
	// Layout-oblivious LF and TL alone bring no real benefit.
	for _, b := range s.Benchmarks {
		for _, col := range []string{"LF/CMDRPM", "TL/CMDRPM"} {
			if d := get(b.Name, "orig/CMDRPM") - get(b.Name, col); d > 0.06 {
				t.Errorf("%s: %s improved by %.3f without layout awareness", b.Name, col, d)
			}
		}
	}
	// LF+DL improves the fissionable benchmarks.
	for _, name := range []string{"swim", "mgrid", "applu", "mesa"} {
		if d := get(name, "orig/CMDRPM") - get(name, "LF+DL/CMDRPM"); d < 0.02 {
			t.Errorf("%s: LF+DL gains only %.3f", name, d)
		}
	}
	// TL+DL improves the transposed benchmarks.
	for _, name := range []string{"wupwise", "applu", "mesa"} {
		if d := get(name, "orig/CMDRPM") - get(name, "TL+DL/CMDRPM"); d < 0.01 {
			t.Errorf("%s: TL+DL gains only %.3f", name, d)
		}
	}
	// The transformations make TPM viable: CMTPM saves nothing on the
	// original codes but saves real energy under LF+DL on the
	// fissionable benchmarks (the paper's headline Fig. 13 finding).
	for _, name := range []string{"swim", "mgrid", "applu", "mesa"} {
		orig := get(name, "orig/CMTPM")
		lfdl := get(name, "LF+DL/CMTPM")
		if orig < 0.97 {
			t.Errorf("%s: CMTPM saved %.3f on original code", name, 1-orig)
		}
		if lfdl > orig-0.05 {
			t.Errorf("%s: LF+DL did not make CMTPM viable (%.3f vs %.3f)", name, lfdl, orig)
		}
	}
}

func TestVersionApplicability(t *testing.T) {
	s := NewSuite()
	tb, err := s.VersionApplicability()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	expect := map[string]map[string]float64{
		"wupwise": {"LF": 0, "LF+DL": 0, "TL+DL": 1},
		"swim":    {"LF": 1, "LF+DL": 1, "TL+DL": 0},
		"mgrid":   {"LF": 1, "LF+DL": 1, "TL+DL": 0},
		"applu":   {"LF": 1, "LF+DL": 1, "TL+DL": 1},
		"mesa":    {"LF": 1, "LF+DL": 1, "TL+DL": 1},
		"galgel":  {"LF": 0, "LF+DL": 0, "TL+DL": 0},
	}
	for name, cols := range expect {
		for col, want := range cols {
			if got, _ := tb.Value(name, col); got != want {
				t.Errorf("%s/%s applied=%v, want %v", name, col, got, want)
			}
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	pre, err := s.AblationPreactivation()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", pre)
	// Without pre-activation CMDRPM pays a time penalty.
	onT, _ := pre.Value("average", "CMDRPM-T")
	offT, _ := pre.Value("average", "noPre-T")
	if offT <= onT {
		t.Errorf("no-preactivation not slower: %.3f vs %.3f", offT, onT)
	}

	noise, err := s.AblationNoise()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", noise)
	// Zero bias leaves only the (small) zero-mean jitter effect.
	if v := noise.Rows[0].Values[0]; v > 2 {
		t.Errorf("zero-bias misprediction = %.2f", v)
	}
	if a, b := noise.Rows[1].Values[0], noise.Rows[len(noise.Rows)-1].Values[0]; b <= a {
		t.Errorf("misprediction not increasing with bias: %.2f -> %.2f", a, b)
	}

	cacheTb, err := s.AblationCache()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", cacheTb)
	for _, r := range cacheTb.Rows {
		if r.Values[1] <= r.Values[0] {
			t.Errorf("%s: cacheless requests not larger", r.Label)
		}
	}

	cl, err := s.AblationClustering()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", cl)
	with, _ := cl.Value("average", "LF+DL")
	without, _ := cl.Value("average", "LF+DL-nocluster")
	if with >= without+0.01 {
		t.Errorf("clustering hurt: %.3f vs %.3f", with, without)
	}
}

func TestUnknownSensitivityBenchmark(t *testing.T) {
	s := NewSuite()
	s.Benchmarks = s.Benchmarks[:1] // wupwise only: no swim
	if _, _, err := s.Figures56(); err == nil {
		t.Error("missing swim accepted")
	}
	if _, _, err := s.Figures78(); err == nil {
		t.Error("missing swim accepted")
	}
	if _, err := s.AblationNoise(); err == nil {
		t.Error("missing mesa accepted")
	}
	if _, _, err := s.FaultImpact(); err == nil {
		t.Error("missing swim accepted")
	}
}

func TestExtensionInterchange(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	tb, err := s.ExtensionInterchange()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	// Interchange fixes the transposed benchmarks nearly as well as
	// TL+DL (it removes the cache-thrashing traversal without any
	// layout change).
	for _, name := range []string{"wupwise", "applu"} {
		orig, _ := tb.Value(name, "orig")
		ic, _ := tb.Value(name, "IC")
		tldl, _ := tb.Value(name, "TL+DL")
		if ic >= orig-0.02 {
			t.Errorf("%s: interchange gained only %.3f", name, orig-ic)
		}
		if ic > tldl+0.05 {
			t.Errorf("%s: interchange (%.3f) far behind TL+DL (%.3f)", name, ic, tldl)
		}
	}
	// Conforming benchmarks are untouched.
	for _, name := range []string{"swim", "mgrid", "galgel"} {
		orig, _ := tb.Value(name, "orig")
		ic, _ := tb.Value(name, "IC")
		if orig != ic {
			t.Errorf("%s: interchange changed a conforming program", name)
		}
	}
	// Request counts drop on the fixed benchmarks.
	for _, name := range []string{"wupwise", "applu", "mesa"} {
		icr, _ := tb.Value(name, "IC-requests")
		origr, _ := tb.Value(name, "orig-requests")
		if icr >= origr {
			t.Errorf("%s: interchange did not reduce requests", name)
		}
	}
}

func TestAblationOpenLoopAndSeek(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	ol, err := s.AblationOpenLoop()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", ol)
	// Open-loop replay hides the reactive scheme's time penalty —
	// the reason the reproduction uses closed-loop execution.
	closedT, _ := ol.Value("average", "DRPM-T")
	openT, _ := ol.Value("average", "openDRPM-T")
	if closedT < 1.05 {
		t.Errorf("closed-loop DRPM penalty missing: %.3f", closedT)
	}
	if openT > 1.02 {
		t.Errorf("open-loop DRPM shows a penalty: %.3f", openT)
	}

	seek, err := s.AblationSeekModel()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", seek)
	// The workloads are mostly sequential: distance-dependent seeks
	// are cheaper than the datasheet average.
	for _, r := range seek.Rows {
		if r.Values[1] >= r.Values[0] {
			t.Errorf("%s: distance seek energy not lower", r.Label)
		}
		if r.Values[3] >= r.Values[2] {
			t.Errorf("%s: distance seek time not lower", r.Label)
		}
	}
}

func TestEnergyBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	s.Benchmarks = s.Benchmarks[5:] // galgel only: keep it quick
	tb, err := s.EnergyBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	r := tb.Rows[0].Values
	baseTotal := r[0] + r[1]
	cmTotal := r[2] + r[3] + r[4] + r[5]
	if cmTotal >= baseTotal {
		t.Errorf("breakdown shows no savings: %.0f vs %.0f", cmTotal, baseTotal)
	}
	// Active energy is identical (same requests at full speed).
	if r[0] != r[2] {
		t.Errorf("active energies differ: %g vs %g", r[0], r[2])
	}
	// The compiler-managed savings come from shrinking idle energy.
	if r[3] >= r[1]/2 {
		t.Errorf("idle energy not collapsed: %g vs %g", r[3], r[1])
	}
}

func TestExtensionMultiprogram(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	tb, err := s.ExtensionMultiprogram()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tb)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Savings shrink as programs share the subsystem, and open-loop
	// replay shows no reactive time penalty.
	first := tb.Rows[0].Values[tb.Col("DRPM-E")]
	last := tb.Rows[len(tb.Rows)-1].Values[tb.Col("DRPM-E")]
	if last <= first {
		t.Errorf("DRPM savings did not shrink under multiprogramming: %.3f -> %.3f", first, last)
	}
	for _, r := range tb.Rows {
		if v := r.Values[tb.Col("DRPM-T")]; v > 1.001 {
			t.Errorf("%s: open-loop DRPM time %.3f", r.Label, v)
		}
	}
}
