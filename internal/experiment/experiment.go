// Package experiment reproduces the EC-FRM paper's evaluation (§VI): for
// each candidate code family (Reed-Solomon, LRC), each Table I parameter
// set, and each layout form (standard, rotated, EC-FRM), it runs the
// randomized read protocol and reports the paper's metrics —
//
//	Figure 8(a)/(b): average normal read speed (MB/s),
//	Figure 9(a)/(b): average degraded read cost (reads per requested element),
//	Figure 9(c)/(d): average degraded read speed (MB/s).
//
// Methodology matches §VI-B/§VI-C: every form of a configuration sees the
// identical seeded trial sequence, so differences come only from the layout.
// Timing comes from the disksim array model; planning from the core planner.
package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/disksim"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
	"repro/internal/workload"
)

// CodeSpec names one candidate code configuration.
type CodeSpec struct {
	Family string // "RS" or "LRC"
	K      int
	L      int // LRC only
	M      int
}

// Label renders the paper's parameter label, e.g. "(6,3)" or "(6,2,2)".
func (cs CodeSpec) Label() string {
	if cs.Family == "LRC" {
		return fmt.Sprintf("(%d,%d,%d)", cs.K, cs.L, cs.M)
	}
	return fmt.Sprintf("(%d,%d)", cs.K, cs.M)
}

// Build constructs the candidate code of family "RS" or "LRC".
func (cs CodeSpec) Build() (codes.Code, error) {
	switch cs.Family {
	case "RS":
		return rs.New(cs.K, cs.M)
	case "LRC":
		return lrc.New(cs.K, cs.L, cs.M)
	default:
		return nil, fmt.Errorf("experiment: unknown family %q", cs.Family)
	}
}

// Table I of the paper.
var (
	// RSConfigs are the Reed-Solomon parameter sets.
	RSConfigs = []CodeSpec{
		{Family: "RS", K: 6, M: 3},
		{Family: "RS", K: 8, M: 4},
		{Family: "RS", K: 10, M: 5},
	}
	// LRCConfigs are the LRC parameter sets.
	LRCConfigs = []CodeSpec{
		{Family: "LRC", K: 6, L: 2, M: 2},
		{Family: "LRC", K: 8, L: 2, M: 3},
		{Family: "LRC", K: 10, L: 2, M: 4},
	}
)

// Forms are the three layout forms in the order the paper plots them.
var Forms = []layout.Form{layout.FormStandard, layout.FormRotated, layout.FormECFRM}

// FormLabel renders the paper's legend label for a form within a family.
func FormLabel(form layout.Form, family string) string {
	switch form {
	case layout.FormStandard:
		return family
	case layout.FormRotated:
		return "R-" + family
	case layout.FormECFRM:
		return "EC-FRM-" + family
	}
	return string(form)
}

// Options configure an experiment run. The zero value is completed by
// Defaults.
type Options struct {
	// ElementBytes is the element size (paper: ~1 MB).
	ElementBytes int
	// Disk is the drive timing model.
	Disk disksim.Config
	// Seed drives workload and timing randomness.
	Seed int64
	// NormalTrials and DegradedTrials are the per-configuration trial
	// counts (paper: 2000 and 5000).
	NormalTrials   int
	DegradedTrials int
	// TotalElements is the readable extent in data elements.
	TotalElements int
	// MaxReadSize caps request sizes (paper: 20).
	MaxReadSize int
	// Parallel is the number of (spec, form) cells measured concurrently
	// (≤1 = sequential). Results are bit-identical either way: trial lists
	// are generated sequentially per spec before the fan-out, every cell
	// seeds its own disk-array jitter stream, and each cell writes to a
	// preassigned slot of the result.
	Parallel int
}

// Defaults fills unset fields with the paper's protocol values.
func (o Options) Defaults() Options {
	if o.ElementBytes == 0 {
		o.ElementBytes = 1 << 20
	}
	if o.Disk == (disksim.Config{}) {
		o.Disk = disksim.DefaultConfig()
	}
	if o.NormalTrials == 0 {
		o.NormalTrials = workload.NormalTrials
	}
	if o.DegradedTrials == 0 {
		o.DegradedTrials = workload.DegradedTrials
	}
	if o.TotalElements == 0 {
		o.TotalElements = 1200
	}
	if o.MaxReadSize == 0 {
		o.MaxReadSize = workload.MaxReadElements
	}
	if o.Seed == 0 {
		o.Seed = 20150901 // ICPP'15 vintage
	}
	return o
}

// Measurement aggregates one (spec, form) cell of a figure.
type Measurement struct {
	Spec CodeSpec
	Form layout.Form
	// SpeedMBps is the mean per-trial read speed.
	SpeedMBps float64
	// Cost is the mean reads-per-requested-element (1.0 for normal reads).
	Cost float64
	// MeanMaxLoad is the mean over trials of the most-loaded disk's
	// element count — the quantity EC-FRM minimizes.
	MeanMaxLoad float64
	// MeanContributing is the mean number of disks serving each request.
	MeanContributing float64
	// Trials is the number of requests measured.
	Trials int
}

// runOne measures a scheme against a fixed trial list.
func runOne(spec CodeSpec, form layout.Form, trials []workload.ReadTrial, opt Options) (Measurement, error) {
	code, err := spec.Build()
	if err != nil {
		return Measurement{}, err
	}
	scheme, err := core.NewScheme(code, form)
	if err != nil {
		return Measurement{}, err
	}
	// A fresh array per form keeps the jitter streams aligned across forms.
	array, err := disksim.NewArray(scheme.N(), opt.Disk, opt.Seed)
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{Spec: spec, Form: form, Trials: len(trials)}
	var speedSum, costSum, maxLoadSum, contribSum float64
	for _, tr := range trials {
		var plan *core.Plan
		if tr.FailedDisk < 0 {
			plan, err = scheme.PlanNormalRead(tr.Start, tr.Count)
		} else {
			plan, err = scheme.PlanDegradedRead(tr.Start, tr.Count, []int{tr.FailedDisk})
		}
		if err != nil {
			return Measurement{}, fmt.Errorf("%s %s trial %+v: %w", spec.Label(), form, tr, err)
		}
		t := array.ServeRead(plan.Loads, opt.ElementBytes)
		speedSum += disksim.SpeedMBps(tr.Count*opt.ElementBytes, t)
		costSum += plan.Cost()
		maxLoadSum += float64(plan.MaxLoad())
		contribSum += float64(plan.ContributingDisks())
	}
	n := float64(len(trials))
	m.SpeedMBps = speedSum / n
	m.Cost = costSum / n
	m.MeanMaxLoad = maxLoadSum / n
	m.MeanContributing = contribSum / n
	return m, nil
}

// Metric selects which aggregate a figure reports.
type Metric string

// The metrics the paper's figures plot.
const (
	MetricNormalSpeed   Metric = "normal-speed"
	MetricDegradedSpeed Metric = "degraded-speed"
	MetricDegradedCost  Metric = "degraded-cost"
)

// Figure describes one of the paper's evaluation figures.
type Figure struct {
	ID     string
	Title  string
	Metric Metric
	Specs  []CodeSpec
	Unit   string
}

// Figures indexes every figure of the paper's evaluation section.
var Figures = []Figure{
	{ID: "8a", Title: "Normal read speed, Reed-Solomon family", Metric: MetricNormalSpeed, Specs: RSConfigs, Unit: "MB/s"},
	{ID: "8b", Title: "Normal read speed, LRC family", Metric: MetricNormalSpeed, Specs: LRCConfigs, Unit: "MB/s"},
	{ID: "9a", Title: "Degraded read cost, Reed-Solomon family", Metric: MetricDegradedCost, Specs: RSConfigs, Unit: "reads/element"},
	{ID: "9b", Title: "Degraded read cost, LRC family", Metric: MetricDegradedCost, Specs: LRCConfigs, Unit: "reads/element"},
	{ID: "9c", Title: "Degraded read speed, Reed-Solomon family", Metric: MetricDegradedSpeed, Specs: RSConfigs, Unit: "MB/s"},
	{ID: "9d", Title: "Degraded read speed, LRC family", Metric: MetricDegradedSpeed, Specs: LRCConfigs, Unit: "MB/s"},
}

// FigureByID looks a figure up by its paper number ("8a" … "9d").
func FigureByID(id string) (Figure, error) {
	for _, f := range Figures {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("experiment: unknown figure %q (have 8a,8b,9a,9b,9c,9d)", id)
}

// FigureResult holds a regenerated figure: one value per (form, spec) cell.
type FigureResult struct {
	Figure Figure
	// Cells[form][specIndex], forms in Forms order.
	Cells map[layout.Form][]Measurement
}

// cellJob is one (spec, form) measurement with its preassigned result slot.
type cellJob struct {
	spec   CodeSpec
	si     int
	form   layout.Form
	trials []workload.ReadTrial
}

// Run regenerates one figure. With opt.Parallel > 1 the figure's (spec,
// form) cells are measured across a worker pool; the output is bit-identical
// to a sequential run (see Options.Parallel).
func Run(fig Figure, opt Options) (*FigureResult, error) {
	opt = opt.Defaults()
	res := &FigureResult{Figure: fig, Cells: make(map[layout.Form][]Measurement)}
	for _, form := range Forms {
		res.Cells[form] = make([]Measurement, len(fig.Specs))
	}
	// Trial generation stays sequential: one seeded list per spec, shared
	// by all three forms (§VI: identical workloads; only the layout varies).
	var jobs []cellJob
	for si, spec := range fig.Specs {
		code, err := spec.Build()
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(workload.Config{
			TotalElements: opt.TotalElements,
			Disks:         code.N(),
			MaxSize:       opt.MaxReadSize,
			Seed:          opt.Seed + int64(spec.K)*1009 + int64(spec.M)*9973,
		})
		if err != nil {
			return nil, err
		}
		var trials []workload.ReadTrial
		if fig.Metric == MetricNormalSpeed {
			trials = gen.NormalSeries(opt.NormalTrials)
		} else {
			trials = gen.DegradedSeries(opt.DegradedTrials)
		}
		for _, form := range Forms {
			jobs = append(jobs, cellJob{spec: spec, si: si, form: form, trials: trials})
		}
	}

	workers := opt.Parallel
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			m, err := runOne(j.spec, j.form, j.trials, opt)
			if err != nil {
				return nil, err
			}
			res.Cells[j.form][j.si] = m
		}
		return res, nil
	}

	ch := make(chan cellJob)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	var abort atomic.Bool
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range ch {
				if abort.Load() {
					continue
				}
				m, err := runOne(j.spec, j.form, j.trials, opt)
				if err != nil {
					errOnce.Do(func() { firstErr = err; abort.Store(true) })
					continue
				}
				res.Cells[j.form][j.si] = m
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// RunAll regenerates every figure.
func RunAll(opt Options) ([]*FigureResult, error) {
	var out []*FigureResult
	for _, fig := range Figures {
		r, err := Run(fig, opt)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// value extracts the figure's metric from a measurement.
func (r *FigureResult) value(m Measurement) float64 {
	if r.Figure.Metric == MetricDegradedCost {
		return m.Cost
	}
	return m.SpeedMBps
}

// Value returns the metric for a form and spec index.
func (r *FigureResult) Value(form layout.Form, specIdx int) float64 {
	return r.value(r.Cells[form][specIdx])
}

// Improvement returns the relative gain of EC-FRM over the given baseline
// form for spec index i: value(ecfrm)/value(base) - 1. For the cost metric
// the sign is inverted so positive still means "EC-FRM better".
func (r *FigureResult) Improvement(base layout.Form, i int) float64 {
	b := r.Value(base, i)
	e := r.Value(layout.FormECFRM, i)
	if b == 0 {
		return 0
	}
	if r.Figure.Metric == MetricDegradedCost {
		return b/e - 1
	}
	return e/b - 1
}

// Table renders the figure as a text table in the paper's orientation:
// one row per form, one column per parameter set.
func (r *FigureResult) Table() string {
	var b strings.Builder
	family := r.Figure.Specs[0].Family
	fmt.Fprintf(&b, "Figure %s: %s (%s)\n", r.Figure.ID, r.Figure.Title, r.Figure.Unit)
	fmt.Fprintf(&b, "%-14s", "")
	for _, spec := range r.Figure.Specs {
		fmt.Fprintf(&b, "%12s", spec.Label())
	}
	b.WriteByte('\n')
	for _, form := range Forms {
		fmt.Fprintf(&b, "%-14s", FormLabel(form, family))
		for i := range r.Figure.Specs {
			fmt.Fprintf(&b, "%12.2f", r.Value(form, i))
		}
		b.WriteByte('\n')
	}
	// Relative improvements, as the paper quotes them.
	for _, base := range []layout.Form{layout.FormStandard, layout.FormRotated} {
		fmt.Fprintf(&b, "%-14s", "Δ vs "+FormLabel(base, family))
		for i := range r.Figure.Specs {
			fmt.Fprintf(&b, "%11.1f%%", 100*r.Improvement(base, i))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SortedForms returns Forms (a fixed order); exported for rendering code
// that wants a stable iteration without importing layout directly.
func SortedForms() []layout.Form {
	out := append([]layout.Form{}, Forms...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteCSV emits the figure as plot-ready CSV: one row per (form, params)
// cell with the metric value plus the auxiliary aggregates.
func (r *FigureResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"figure", "form", "params", r.Figure.Unit,
		"mean_max_load", "mean_contributing_disks", "trials"}); err != nil {
		return err
	}
	family := r.Figure.Specs[0].Family
	for _, form := range Forms {
		for i, spec := range r.Figure.Specs {
			m := r.Cells[form][i]
			rec := []string{
				r.Figure.ID,
				FormLabel(form, family),
				spec.Label(),
				strconv.FormatFloat(r.Value(form, i), 'f', 4, 64),
				strconv.FormatFloat(m.MeanMaxLoad, 'f', 4, 64),
				strconv.FormatFloat(m.MeanContributing, 'f', 4, 64),
				strconv.Itoa(m.Trials),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
