package ecfrm

// One benchmark per table/figure of the paper's evaluation (§VI), plus the
// ablations DESIGN.md calls out. Each figure benchmark replays the paper's
// randomized protocol (at a trial count scaled for benchmarking) and reports
// the regenerated series as custom metrics:
//
//	<form>_<params>_MBps   mean read speed of that form (figures 8a-8b, 9c-9d)
//	<form>_<params>_cost   mean degraded read cost (figures 9a-9b)
//	gain_vs_std_<params>   EC-FRM's relative improvement over standard
//
// Run with: go test -bench=Fig -benchmem
// The full-protocol tables come from: go run ./cmd/ecfrmbench
// Served-path numbers (ecfrmd PUT/GET, per layer) come from bench/ only.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/disksim"
	"repro/internal/experiment"
	"repro/internal/layout"
)

// benchOpts scales the paper's protocol down so a single benchmark iteration
// stays subsecond; cmd/ecfrmbench runs the full 2000/5000-trial protocol.
func benchOpts() experiment.Options {
	return experiment.Options{NormalTrials: 250, DegradedTrials: 400, TotalElements: 600}
}

func benchFigure(b *testing.B, id string) {
	fig, err := experiment.FigureByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var res *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		res, err = experiment.Run(fig, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	family := fig.Specs[0].Family
	unit := "MBps"
	if fig.Metric == experiment.MetricDegradedCost {
		unit = "cost"
	}
	for i, spec := range fig.Specs {
		label := strings.NewReplacer("(", "", ")", "", ",", "_").Replace(spec.Label())
		for _, form := range experiment.Forms {
			name := fmt.Sprintf("%s_%s_%s", experiment.FormLabel(form, family), label, unit)
			b.ReportMetric(res.Value(form, i), name)
		}
		b.ReportMetric(100*res.Improvement(layout.FormStandard, i),
			fmt.Sprintf("gain_vs_std_%s_pct", label))
	}
}

// BenchmarkFig8aNormalReadRS regenerates Figure 8(a): normal read speed for
// RS, R-RS, and EC-FRM-RS at (6,3), (8,4), (10,5).
func BenchmarkFig8aNormalReadRS(b *testing.B) { benchFigure(b, "8a") }

// BenchmarkFig8bNormalReadLRC regenerates Figure 8(b): normal read speed for
// LRC, R-LRC, and EC-FRM-LRC at (6,2,2), (8,2,3), (10,2,4).
func BenchmarkFig8bNormalReadLRC(b *testing.B) { benchFigure(b, "8b") }

// BenchmarkFig9aDegradedCostRS regenerates Figure 9(a): degraded read cost
// for the RS family.
func BenchmarkFig9aDegradedCostRS(b *testing.B) { benchFigure(b, "9a") }

// BenchmarkFig9bDegradedCostLRC regenerates Figure 9(b): degraded read cost
// for the LRC family.
func BenchmarkFig9bDegradedCostLRC(b *testing.B) { benchFigure(b, "9b") }

// BenchmarkFig9cDegradedSpeedRS regenerates Figure 9(c): degraded read speed
// for the RS family.
func BenchmarkFig9cDegradedSpeedRS(b *testing.B) { benchFigure(b, "9c") }

// BenchmarkFig9dDegradedSpeedLRC regenerates Figure 9(d): degraded read
// speed for the LRC family.
func BenchmarkFig9dDegradedSpeedLRC(b *testing.B) { benchFigure(b, "9d") }

// BenchmarkTable1Configs exercises every Table I configuration's encode path
// end-to-end (stripe encode under the EC-FRM layout), reporting bytes/s.
func BenchmarkTable1Configs(b *testing.B) {
	specs := append(append([]experiment.CodeSpec{}, experiment.RSConfigs...), experiment.LRCConfigs...)
	for _, spec := range specs {
		b.Run(spec.Family+spec.Label(), func(b *testing.B) {
			code, err := spec.Build()
			if err != nil {
				b.Fatal(err)
			}
			scheme, err := NewScheme(code, FormECFRM)
			if err != nil {
				b.Fatal(err)
			}
			const elem = 64 << 10
			data := make([][]byte, scheme.DataPerStripe())
			for i := range data {
				data[i] = make([]byte, elem)
			}
			b.SetBytes(int64(len(data) * elem))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scheme.EncodeStripe(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------

// BenchmarkAblationElementSize varies the element size around the paper's
// 1 MB and reports the EC-FRM-vs-standard normal-read gain at each size.
// The gain grows with element size because positioning time amortizes away
// and the max-load term dominates.
func BenchmarkAblationElementSize(b *testing.B) {
	for _, size := range []int{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("elem_%dKiB", size>>10), func(b *testing.B) {
			fig, _ := experiment.FigureByID("8b")
			opt := benchOpts()
			opt.ElementBytes = size
			var res *experiment.FigureResult
			var err error
			for i := 0; i < b.N; i++ {
				if res, err = experiment.Run(fig, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.Improvement(layout.FormStandard, 0), "gain_622_pct")
		})
	}
}

// BenchmarkAblationReadSize varies the maximum request size (paper: 20
// elements). Small requests fit inside k disks, so EC-FRM's extra
// parallelism matters less; the gain rises with the size cap.
func BenchmarkAblationReadSize(b *testing.B) {
	for _, maxSize := range []int{4, 10, 20, 40} {
		b.Run(fmt.Sprintf("max_%d", maxSize), func(b *testing.B) {
			fig, _ := experiment.FigureByID("8b")
			opt := benchOpts()
			opt.MaxReadSize = maxSize
			var res *experiment.FigureResult
			var err error
			for i := 0; i < b.N; i++ {
				if res, err = experiment.Run(fig, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.Improvement(layout.FormStandard, 0), "gain_622_pct")
		})
	}
}

// BenchmarkAblationDiskModel varies the positioning/transfer ratio to show
// the EC-FRM speedup is robust to the disk model: faster positioning makes
// the max-load term dominate and the gain larger, not smaller.
func BenchmarkAblationDiskModel(b *testing.B) {
	for _, pos := range []time.Duration{2 * time.Millisecond, 8 * time.Millisecond, 15 * time.Millisecond, 30 * time.Millisecond} {
		b.Run(fmt.Sprintf("pos_%v", pos), func(b *testing.B) {
			cfg := disksim.DefaultConfig()
			cfg.Positioning = pos
			fig, _ := experiment.FigureByID("8a")
			opt := benchOpts()
			opt.Disk = cfg
			var res *experiment.FigureResult
			var err error
			for i := 0; i < b.N; i++ {
				if res, err = experiment.Run(fig, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.Improvement(layout.FormStandard, 0), "gain_63_pct")
		})
	}
}

// --- Extension experiments (DESIGN.md §7) ---------------------------------

// BenchmarkMotivationTable regenerates the §III-A vertical-vs-horizontal
// comparison, reporting each code's normal-read speed.
func BenchmarkMotivationTable(b *testing.B) {
	var rows []experiment.MotivationRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = experiment.MotivationTable(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := strings.NewReplacer("(", "_", ")", "", ",", "_", "-", "_").Replace(r.Name)
		b.ReportMetric(r.NormalSpeedMBps, name+"_MBps")
	}
}

// BenchmarkRecoverySweep regenerates the single-disk recovery table,
// reporting each scheme's recovery amplification.
func BenchmarkRecoverySweep(b *testing.B) {
	var rows []experiment.RecoveryRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = experiment.RecoverySweep(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := strings.NewReplacer("(", "_", ")", "", ",", "_", "-", "_").Replace(r.Scheme)
		b.ReportMetric(r.Amplification, name+"_amp")
	}
}

// BenchmarkConcurrencySweep regenerates the open-loop concurrency extension,
// reporting mean latency (ms) per form at a moderately loaded arrival rate.
func BenchmarkConcurrencySweep(b *testing.B) {
	var points []experiment.ConcurrencyPoint
	var err error
	ias := []time.Duration{120 * time.Millisecond, 60 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		if points, err = experiment.ConcurrencySweep(ias, 400, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		name := fmt.Sprintf("%s_ia%dms_lat_ms", p.Form, p.InterArrival.Milliseconds())
		b.ReportMetric(float64(p.MeanLatency.Microseconds())/1000, name)
	}
}

// BenchmarkAblationRotationStride varies the rotated layout's per-stripe
// rotation amount on the (6,2,2) shape. Measured result: moderate strides
// (2-3) beat the conventional stride 1 by ~13% — they hop the next stripe's
// data window clear of the previous stripe's tail — while large strides
// (5, 9) wrap around into collisions and lose. None approaches EC-FRM,
// which removes the window entirely.
func BenchmarkAblationRotationStride(b *testing.B) {
	code, err := NewLRC(6, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewWorkload(WorkloadConfig{TotalElements: 600, Disks: code.N(), Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	trials := gen.NormalSeries(400)
	arrCfg := DefaultDiskConfig()
	for _, stride := range []int{1, 2, 3, 5, 9} {
		b.Run(fmt.Sprintf("stride_%d", stride), func(b *testing.B) {
			lay := layout.NewRotatedStride(code.N(), code.K(), stride)
			arr, err := NewDiskArray(code.N(), arrCfg, 14)
			if err != nil {
				b.Fatal(err)
			}
			var speed float64
			for i := 0; i < b.N; i++ {
				speed = 0
				for _, tr := range trials {
					loads := make([]int, code.N())
					for x := tr.Start; x < tr.Start+tr.Count; x++ {
						stripe := x / lay.DataPerStripe()
						p := lay.DataPos(x % lay.DataPerStripe())
						loads[lay.Disk(stripe, p.Col)]++
					}
					t := arr.ServeRead(loads, 1<<20)
					speed += float64(tr.Count) / 1 / t.Seconds()
				}
			}
			b.ReportMetric(speed/float64(len(trials)), "MBps")
		})
	}
}

// BenchmarkAblationHeterogeneity varies per-disk bandwidth diversity
// (mixed-generation arrays) and reports EC-FRM's normal-read gain. The
// paper's premise — the most loaded disk is usually the slowest — bites
// harder the more the disks differ, and EC-FRM's spreading keeps requests
// off a single slow+hot disk.
func BenchmarkAblationHeterogeneity(b *testing.B) {
	code, err := NewLRC(6, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewWorkload(WorkloadConfig{TotalElements: 600, Disks: code.N(), Seed: 15})
	if err != nil {
		b.Fatal(err)
	}
	trials := gen.NormalSeries(400)
	for _, spread := range []float64{0, 0.2, 0.4, 0.6} {
		b.Run(fmt.Sprintf("spread_%02.0f", spread*100), func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				speeds := map[Form]float64{}
				for _, form := range []Form{FormStandard, FormECFRM} {
					scheme, err := NewScheme(code, form)
					if err != nil {
						b.Fatal(err)
					}
					arr, err := disksim.NewHeterogeneousArray(scheme.N(), DefaultDiskConfig(), 16, spread)
					if err != nil {
						b.Fatal(err)
					}
					var sum float64
					for _, tr := range trials {
						p, err := scheme.PlanNormalRead(tr.Start, tr.Count)
						if err != nil {
							b.Fatal(err)
						}
						t := arr.ServeRead(p.Loads, 1<<20)
						sum += disksim.SpeedMBps(tr.Count<<20, t)
					}
					speeds[form] = sum / float64(len(trials))
				}
				gain = 100 * (speeds[FormECFRM]/speeds[FormStandard] - 1)
			}
			b.ReportMetric(gain, "gain_pct")
		})
	}
}
