// Command ecfrmbench regenerates the EC-FRM paper's evaluation (§VI): every
// figure — 8a, 8b (normal read speed), 9a, 9b (degraded read cost), 9c, 9d
// (degraded read speed) — as a text table, using the paper's protocol
// (2000 normal-read trials, 5000 degraded-read trials, request sizes of 1-20
// one-megabyte elements, Table I parameters).
//
// Usage:
//
//	ecfrmbench                 # all figures, full protocol
//	ecfrmbench -fig 8a         # one figure
//	ecfrmbench -quick          # reduced trial counts for a fast look
//	ecfrmbench -seed 7 -elem 4194304
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/disksim"
	"repro/internal/experiment"
)

func main() {
	var (
		figID       = flag.String("fig", "", "figure to regenerate (8a,8b,9a,9b,9c,9d); empty = all")
		quick       = flag.Bool("quick", false, "reduced trial counts (200/300) for a fast run")
		seed        = flag.Int64("seed", 0, "workload and timing seed (0 = paper default)")
		elem        = flag.Int("elem", 0, "element size in bytes (0 = 1 MiB)")
		trialsN     = flag.Int("normal-trials", 0, "normal-read trials (0 = paper's 2000)")
		trialsD     = flag.Int("degraded-trials", 0, "degraded-read trials (0 = paper's 5000)")
		position    = flag.Duration("positioning", 0, "disk positioning time (0 = calibrated default)")
		bwMBps      = flag.Float64("bandwidth", 0, "disk bandwidth MB/s (0 = calibrated default)")
		motivation  = flag.Bool("motivation", false, "also print the §III-A vertical-vs-horizontal comparison")
		recovery    = flag.Bool("recovery", false, "also print the single-disk recovery table")
		concurrency = flag.Bool("concurrency", false, "also print the open-loop concurrency extension sweep")
		csvDir      = flag.String("csv", "", "also write each figure as <dir>/fig<ID>.csv for plotting")
		parallel    = flag.Int("parallel", 0, "measure figure (code, form) cells across this many workers; results are bit-identical to sequential")
	)
	flag.Parse()

	opt := experiment.Options{
		ElementBytes:   *elem,
		Seed:           *seed,
		NormalTrials:   *trialsN,
		DegradedTrials: *trialsD,
		Parallel:       *parallel,
	}
	if *quick {
		if opt.NormalTrials == 0 {
			opt.NormalTrials = 200
		}
		if opt.DegradedTrials == 0 {
			opt.DegradedTrials = 300
		}
	}
	if *position != 0 || *bwMBps != 0 {
		cfg := disksim.DefaultConfig()
		if *position != 0 {
			cfg.Positioning = *position
		}
		if *bwMBps != 0 {
			cfg.BandwidthMBps = *bwMBps
		}
		opt.Disk = cfg
	}

	fmt.Println("EC-FRM evaluation reproduction (ICPP 2015, Fu/Shu/Shen)")
	fmt.Println("Table I configurations: RS (6,3) (8,4) (10,5); LRC (6,2,2) (8,2,3) (10,2,4)")
	fmt.Println()

	var figs []experiment.Figure
	if *figID == "" {
		figs = experiment.Figures
	} else {
		f, err := experiment.FigureByID(*figID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		figs = []experiment.Figure{f}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, f := range figs {
		res, err := experiment.Run(f, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		fmt.Println(res.Table())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, "fig"+f.ID+".csv")
			out, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := res.WriteCSV(out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := out.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("(wrote %s)\n\n", path)
		}
	}
	if *motivation {
		rows, err := experiment.MotivationTable(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "motivation:", err)
			os.Exit(1)
		}
		fmt.Println(experiment.RenderMotivation(rows))
	}
	if *recovery {
		rows, err := experiment.RecoverySweep(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "recovery:", err)
			os.Exit(1)
		}
		fmt.Println(experiment.RenderRecovery(rows))
	}
	if *concurrency {
		points, err := experiment.ConcurrencySweep(
			[]time.Duration{200 * time.Millisecond, 80 * time.Millisecond, 40 * time.Millisecond, 20 * time.Millisecond},
			1000, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "concurrency:", err)
			os.Exit(1)
		}
		fmt.Println(experiment.RenderConcurrency(points))
	}
}
