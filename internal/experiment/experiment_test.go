package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/layout"
)

// fastOpts keeps unit tests quick; the full paper protocol runs in
// cmd/ecfrmbench (the root bench_test.go replays a scaled-down one).
func fastOpts() Options {
	return Options{NormalTrials: 150, DegradedTrials: 200, TotalElements: 400}
}

func TestCodeSpecLabelsAndBuild(t *testing.T) {
	rsSpec := CodeSpec{Family: "RS", K: 6, M: 3}
	if rsSpec.Label() != "(6,3)" {
		t.Fatalf("label = %q", rsSpec.Label())
	}
	lrcSpec := CodeSpec{Family: "LRC", K: 6, L: 2, M: 2}
	if lrcSpec.Label() != "(6,2,2)" {
		t.Fatalf("label = %q", lrcSpec.Label())
	}
	for _, spec := range append(append([]CodeSpec{}, RSConfigs...), LRCConfigs...) {
		c, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		if c.K() != spec.K {
			t.Fatalf("%s: built k=%d", spec.Label(), c.K())
		}
	}
	if _, err := (CodeSpec{Family: "XOR"}).Build(); err == nil {
		t.Fatal("unknown family must fail")
	}
}

func TestFormLabel(t *testing.T) {
	cases := map[layout.Form]string{
		layout.FormStandard: "RS",
		layout.FormRotated:  "R-RS",
		layout.FormECFRM:    "EC-FRM-RS",
	}
	for form, want := range cases {
		if got := FormLabel(form, "RS"); got != want {
			t.Errorf("FormLabel(%s) = %q, want %q", form, got, want)
		}
	}
}

func TestFigureByID(t *testing.T) {
	for _, id := range []string{"8a", "8b", "9a", "9b", "9c", "9d"} {
		if _, err := FigureByID(id); err != nil {
			t.Errorf("FigureByID(%s): %v", id, err)
		}
	}
	if _, err := FigureByID("11"); err == nil {
		t.Fatal("unknown figure must fail")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.ElementBytes != 1<<20 || o.NormalTrials != 2000 || o.DegradedTrials != 5000 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	// Explicit values survive.
	o = Options{NormalTrials: 7}.Defaults()
	if o.NormalTrials != 7 {
		t.Fatal("explicit trial count overridden")
	}
}

func TestRunFigure8aShape(t *testing.T) {
	fig, _ := FigureByID("8a")
	res, err := Run(fig, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.Specs {
		std := res.Value(layout.FormStandard, i)
		frm := res.Value(layout.FormECFRM, i)
		if std <= 0 || frm <= 0 {
			t.Fatalf("non-positive speeds: std=%v frm=%v", std, frm)
		}
		// The paper's headline: EC-FRM-RS reads at least 15% faster than
		// standard RS at every parameter set (paper: 19.2-33.9%).
		if frm < std*1.15 {
			t.Errorf("%s: EC-FRM %v not >15%% over standard %v",
				fig.Specs[i].Label(), frm, std)
		}
	}
}

func TestRunFigure8bShape(t *testing.T) {
	fig, _ := FigureByID("8b")
	res, err := Run(fig, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.Specs {
		if imp := res.Improvement(layout.FormStandard, i); imp < 0.15 {
			t.Errorf("%s: EC-FRM-LRC improvement %.1f%% below 15%%",
				fig.Specs[i].Label(), 100*imp)
		}
		if imp := res.Improvement(layout.FormRotated, i); imp < 0.05 {
			t.Errorf("%s: EC-FRM-LRC vs rotated %.1f%% below 5%%",
				fig.Specs[i].Label(), 100*imp)
		}
	}
}

func TestRunFigure9CostParity(t *testing.T) {
	// Degraded read cost must be nearly layout-independent (paper: <0.9%
	// for RS, <0.7% for LRC; allow slack at reduced trial counts).
	for _, id := range []string{"9a", "9b"} {
		fig, _ := FigureByID(id)
		opts := fastOpts()
		opts.DegradedTrials = 1500
		res, err := Run(fig, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fig.Specs {
			std := res.Value(layout.FormStandard, i)
			frm := res.Value(layout.FormECFRM, i)
			rot := res.Value(layout.FormRotated, i)
			for _, v := range []float64{std, frm, rot} {
				if v < 1.0 {
					t.Fatalf("%s %s: cost %v below 1", id, fig.Specs[i].Label(), v)
				}
			}
			if diff := frm/std - 1; diff > 0.06 || diff < -0.06 {
				t.Errorf("fig %s %s: cost gap %.1f%% exceeds 6%%",
					id, fig.Specs[i].Label(), 100*diff)
			}
		}
	}
}

func TestRunFigure9dDegradedSpeedShape(t *testing.T) {
	fig, _ := FigureByID("9d")
	res, err := Run(fig, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fig.Specs {
		if imp := res.Improvement(layout.FormStandard, i); imp <= 0 {
			t.Errorf("%s: EC-FRM-LRC degraded speed not above standard (%.1f%%)",
				fig.Specs[i].Label(), 100*imp)
		}
	}
}

func TestLRCCostBelowRSCost(t *testing.T) {
	// Cross-family claim (Figure 9a vs 9b): LRC's degraded cost is much
	// lower than RS's at comparable k.
	opts := fastOpts()
	figRS, _ := FigureByID("9a")
	figLRC, _ := FigureByID("9b")
	rsRes, err := Run(figRS, opts)
	if err != nil {
		t.Fatal(err)
	}
	lrcRes, err := Run(figLRC, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range RSConfigs {
		if lrcRes.Value(layout.FormStandard, i) >= rsRes.Value(layout.FormStandard, i) {
			t.Errorf("config %d: LRC cost %.3f not below RS cost %.3f", i,
				lrcRes.Value(layout.FormStandard, i), rsRes.Value(layout.FormStandard, i))
		}
	}
}

func TestMeasurementExtras(t *testing.T) {
	fig, _ := FigureByID("8a")
	res, err := Run(fig, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Cells[layout.FormECFRM][0]
	if m.MeanMaxLoad <= 0 || m.MeanMaxLoad > 20 {
		t.Fatalf("MeanMaxLoad = %v", m.MeanMaxLoad)
	}
	if m.MeanContributing <= 0 || m.MeanContributing > float64(9) {
		t.Fatalf("MeanContributing = %v", m.MeanContributing)
	}
	if m.Trials != 150 {
		t.Fatalf("Trials = %d", m.Trials)
	}
	// EC-FRM engages more disks than standard on average.
	std := res.Cells[layout.FormStandard][0]
	if m.MeanContributing <= std.MeanContributing {
		t.Fatalf("EC-FRM contributing %v not above standard %v",
			m.MeanContributing, std.MeanContributing)
	}
}

func TestTableRendering(t *testing.T) {
	fig, _ := FigureByID("8a")
	res, err := Run(fig, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	table := res.Table()
	for _, want := range []string{"Figure 8a", "RS", "R-RS", "EC-FRM-RS", "(6,3)", "(10,5)", "Δ vs RS"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestIdenticalTrialsAcrossForms(t *testing.T) {
	// Two runs of the same figure must be bit-identical (full determinism).
	fig, _ := FigureByID("9d")
	opts := fastOpts()
	a, err := Run(fig, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fig, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, form := range Forms {
		for i := range fig.Specs {
			if a.Cells[form][i] != b.Cells[form][i] {
				t.Fatalf("non-deterministic measurement at %s/%d", form, i)
			}
		}
	}
}

func TestSortedForms(t *testing.T) {
	f := SortedForms()
	if len(f) != 3 {
		t.Fatalf("got %d forms", len(f))
	}
}

func TestRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow")
	}
	opts := Options{NormalTrials: 40, DegradedTrials: 40, TotalElements: 400}
	results, err := RunAll(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Figures) {
		t.Fatalf("got %d figures, want %d", len(results), len(Figures))
	}
}

func TestMotivationTable(t *testing.T) {
	rows, err := MotivationTable(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byName := map[string]MotivationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	std := byName["LRC(6,2,2)"]
	frm := byName["EC-FRM-LRC(6,2,2)"]
	xc := byName["X-Code(11)"]
	wv := byName["WEAVER(10,2,2)"]
	// The §III-A claims, measured:
	if frm.NormalSpeedMBps <= std.NormalSpeedMBps {
		t.Error("EC-FRM must out-read standard LRC")
	}
	if xc.MeanMaxLoad >= std.MeanMaxLoad {
		t.Error("X-Code must balance better than standard LRC")
	}
	if wv.StorageOverhead != 2.0 || xc.FaultTolerance != 2 {
		t.Error("vertical-code costs wrong")
	}
	if frm.FaultTolerance != 3 || frm.StorageOverhead > 1.67 {
		t.Error("EC-FRM must keep LRC's tolerance/overhead")
	}
	if xc.ArbitraryDisks {
		t.Error("X-Code must be flagged prime-only")
	}
	out := RenderMotivation(rows)
	if !strings.Contains(out, "X-Code(11)") || !strings.Contains(out, "WEAVER(10,2,2)") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}

func TestConcurrencySweep(t *testing.T) {
	ias := []time.Duration{200 * time.Millisecond, 40 * time.Millisecond}
	points, err := ConcurrencySweep(ias, 300, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	byKey := map[string]ConcurrencyPoint{}
	for _, p := range points {
		byKey[string(p.Form)+p.InterArrival.String()] = p
	}
	for _, ia := range ias {
		std := byKey[string(layout.FormStandard)+ia.String()]
		frm := byKey[string(layout.FormECFRM)+ia.String()]
		if frm.MeanLatency >= std.MeanLatency {
			t.Errorf("ia=%v: EC-FRM mean latency %v not below standard %v",
				ia, frm.MeanLatency, std.MeanLatency)
		}
	}
	// EC-FRM's relative advantage must grow (or at least not shrink much)
	// as offered load rises: compare latency ratios at low vs high load.
	low := float64(byKey[string(layout.FormStandard)+ias[0].String()].MeanLatency) /
		float64(byKey[string(layout.FormECFRM)+ias[0].String()].MeanLatency)
	high := float64(byKey[string(layout.FormStandard)+ias[1].String()].MeanLatency) /
		float64(byKey[string(layout.FormECFRM)+ias[1].String()].MeanLatency)
	if high < low*0.95 {
		t.Errorf("advantage shrank under load: ratio %.3f (low) vs %.3f (high)", low, high)
	}
	if out := RenderConcurrency(points); !strings.Contains(out, "p99") {
		t.Fatal("render missing columns")
	}
}

func TestRecoverySweep(t *testing.T) {
	rows, err := RecoverySweep(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 6 configs × 2 forms
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	byName := map[string]RecoveryRow{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	// RS recovery reads k elements per rebuilt element.
	rs63 := byName["RS(6,3)"]
	if rs63.Amplification != 6 {
		t.Errorf("RS(6,3) amplification = %v, want 6", rs63.Amplification)
	}
	// EC-FRM does not change the amplification (same groups erased).
	frm63 := byName["EC-FRM-RS(6,3)"]
	if frm63.Amplification != rs63.Amplification {
		t.Errorf("layout changed RS recovery amplification: %v vs %v",
			frm63.Amplification, rs63.Amplification)
	}
	// LRC's local parities cut recovery well below RS's k.
	lrc622 := byName["LRC(6,2,2)"]
	if lrc622.Amplification >= rs63.Amplification {
		t.Errorf("LRC amplification %v not below RS %v",
			lrc622.Amplification, rs63.Amplification)
	}
	if out := RenderRecovery(rows); !strings.Contains(out, "EC-FRM-LRC(10,2,4)") {
		t.Fatal("render missing rows")
	}
}

func TestFigureWriteCSV(t *testing.T) {
	fig, _ := FigureByID("8a")
	res, err := Run(fig, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+3*3 { // header + 3 forms × 3 params
		t.Fatalf("%d CSV lines, want 10:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "figure,form,params,MB/s") {
		t.Fatalf("header: %s", lines[0])
	}
	for _, want := range []string{"EC-FRM-RS", `"(6,3)"`, "8a"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("CSV missing %q", want)
		}
	}
}

// TestParallelRunBitIdentical pins the determinism contract: a parallel
// sweep must render byte-identical CSV to the sequential one.
func TestParallelRunBitIdentical(t *testing.T) {
	opt := Options{NormalTrials: 60, DegradedTrials: 60, TotalElements: 240}
	for _, fig := range []string{"8a", "9b"} {
		f, err := FigureByID(fig)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Run(f, opt)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Run(f, func() Options { o := opt; o.Parallel = 4; return o }())
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := seq.WriteCSV(&a); err != nil {
			t.Fatal(err)
		}
		if err := par.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("figure %s: parallel CSV differs from sequential:\n%s\n---\n%s", fig, a.String(), b.String())
		}
	}
}
