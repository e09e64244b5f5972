// Command bench is the repository's one end-to-end benchmark: it builds
// cmd/ecfrmd, drives the real binary over loopback with closed-loop clients,
// byte-verifies every reply, and prints every metric by name and unit. With
// -trace 1 it also replays the same requests in-process around each layer's
// public functions and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

var (
	flagWorkload  = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(specNames(), ", "))
	flagSeed      = flag.Int64("seed", 1, "seed for payloads, names and operation order")
	flagSeconds   = flag.Int("seconds", 32, "per workload: as many rounds as end within this much time (at least 3 rounds)")
	flagTrace     = flag.Int("trace", 0, "1: also replay in-process, print the per-layer metrics and write out/trace-<workload>.json")
	flagQuick     = flag.Bool("quick", false, "one round of tenth-size phases: checks shape and correctness, not speed")
	flagSelfcheck = flag.Bool("selfcheck", false, "run everything twice on the same binary and fail if the two disagree beyond the bounds in BENCHMARK.json")
	flagDataRoot  = flag.String("data-root", "", "where data directories go (default: /dev/shm, else .bench_build in the repository)")
)

const minRounds = 3

func specNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

func main() {
	flag.Parse()
	os.Exit(run())
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "ecfrmd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/ecfrmd in or above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// environment is printed with every result: numbers from different hosts,
// toolchains or data filesystems are not comparable.
type environment struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	DataRoot   string  `json:"data_root"`
	DataFS     string  `json:"data_fs"`
	BuildS     float64 `json:"build_s"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Quick      bool    `json:"quick"`
	Note       string  `json:"note"`
}

// buildServer compiles cmd/ecfrmd into workDir and returns the binary.
func buildServer(root, workDir string) (string, float64, error) {
	bin := filepath.Join(workDir, "bin", "ecfrmd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/ecfrmd")
	cmd.Dir = root
	cmd.Env = os.Environ()
	if os.Getenv("GOCACHE") == "" {
		// Keep the build inside the checkout, as run.sh does for this program.
		cmd.Env = append(cmd.Env, "GOCACHE="+filepath.Join(workDir, "gocache"))
	}
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/ecfrmd: %v\n%s", err, out)
	}
	return bin, time.Since(t0).Seconds(), nil
}

func gitSHA(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func run() int {
	fail := func(code int, err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return code
	}
	root, err := findRoot()
	if err != nil {
		return fail(2, err)
	}
	workDir := filepath.Join(root, ".bench_build")
	todo := specs
	if *flagWorkload != "all" {
		s, ok := specByName(*flagWorkload)
		if !ok {
			return fail(2, fmt.Errorf("unknown workload %q (all, %s)", *flagWorkload, strings.Join(specNames(), ", ")))
		}
		todo = []spec{s}
	}

	sb, err := newSandbox(*flagDataRoot, workDir)
	if err != nil {
		return fail(2, err)
	}
	// Every exit path purges: return, error, panic on this goroutine, and
	// SIGINT/SIGTERM. What a SIGKILL leaves, the next run's removeStale takes.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var interrupted atomic.Bool
	go func() {
		s := <-sig
		interrupted.Store(true)
		fmt.Fprintf(os.Stderr, "bench: %v: stopping servers and removing data directories\n", s)
		sb.purge()
		os.Exit(130)
	}()
	defer func() {
		if interrupted.Load() {
			select {} // the rounds failed because the handler above is purging; it exits
		}
		sb.purge()
	}()

	logDir := filepath.Join(workDir, "logs")
	os.RemoveAll(logDir) // an earlier run's server logs would only mislead
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return fail(2, err)
	}
	bin, buildS, err := buildServer(root, workDir)
	if err != nil {
		return fail(2, err)
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	env := environment{
		GitSHA: gitSHA(root), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: strings.TrimSpace(string(kernel)),
		DataRoot: sb.dataRoot, DataFS: sb.fsName(), BuildS: buildS,
		Seed: *flagSeed, Seconds: *flagSeconds, Quick: *flagQuick,
		Note: "closed loop, 1 client per loop; files sit in RAM (page cache" +
			" or tmpfs), so latencies are this sandbox's, not a device's",
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("environment %s\n", envJSON)

	h := &harness{sb: sb, bin: bin, pool: newPool(*flagSeed), seed: *flagSeed, logDir: logDir}
	if *flagSelfcheck {
		return selfcheck(h, root, todo)
	}
	if *flagTrace != 0 {
		h.tr = &tracer{}
	}
	results, err := suite(h, todo)
	if err != nil {
		if !interrupted.Load() {
			fmt.Fprintf(os.Stderr, "bench: %v\n%s", err, h.serverLogTail())
		}
		return 1
	}
	var rp *replay
	if *flagTrace != 0 {
		if rp, err = perLayer(h); err != nil {
			return fail(1, err)
		}
		if err := h.tr.write(filepath.Join(root, "bench", "out")); err != nil {
			return fail(1, err)
		}
	}
	return report(results, rp)
}

// suite runs the given workloads round-robin, one round each in turn, so a
// slow minute of the host is shared by all of them. A workload keeps getting
// rounds while one more, if as long as its longest so far, still ends within
// the -seconds spent in its rounds, and until it has had minRounds; -quick
// gives each exactly one.
func suite(h *harness, todo []spec) ([]*tally, error) {
	tallies := make([]*tally, len(todo))
	for i, s := range todo {
		if *flagQuick {
			s = s.quick()
		}
		tallies[i] = &tally{spec: s}
	}
	budget := time.Duration(*flagSeconds) * time.Second
	for round := 0; ; round++ {
		ran := false
		for _, t := range tallies {
			if *flagQuick && round > 0 || !*flagQuick && round >= minRounds && t.walltime+t.longest > budget {
				continue
			}
			ran = true
			if err := h.round(t, round); err != nil {
				return nil, fmt.Errorf("%s round %d: %w", t.spec.name, round, err)
			}
		}
		if !ran {
			return tallies, nil
		}
	}
}

// result is the line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every workload's shape and metrics and ends with one JSON
// object on the last line: the single workload's result, or for several a
// map from workload to result.
func report(tallies []*tally, rp *replay) int {
	all := map[string]result{}
	ok := true
	for _, t := range tallies {
		r := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: t.endToEndMetrics()}
		ok = ok && r.Correct
		p, tail, n := tailPercentile(t.getMs)
		pp, ptail, pn := tailPercentile(t.putMs)
		fmt.Printf("\n%s: %d rounds in %.1fs; %d GET blocks, %d PUT blocks; attempted %d, failed %d\n",
			t.spec.name, len(t.setupS), t.walltime.Seconds(), len(t.getBlocks), len(t.putBlocks), t.attempted, t.failed)
		fmt.Printf("  GET p%g = %.3f ms over %d samples; PUT p%g = %.3f ms over %d samples\n", p, tail, n, pp, ptail, pn)
		fmt.Printf("  per-round GET p50 %.3f ms, PUT p50 %.3f ms, set-up %.3f s, peak RSS %.0f MB, host steal %.1f %%\n", t.getP50, t.putP50, t.setupS, t.rssMB, t.stealPct)
		for _, e := range t.errs {
			fmt.Printf("  FAILED: %s\n", e)
		}
		for _, m := range endToEnd {
			fmt.Printf("  %-22s %s\n", m.name, r.Metrics[m.name])
		}
		if rp != nil {
			// A traced run reports the per-layer metrics in place of the
			// end-to-end ones, which are only ever taken with tracing off.
			r.Metrics = map[string]metric{}
			for name, m := range rp.out {
				r.Metrics[name] = m
			}
			clientLayer(t, rp, r.Metrics)
			names := make([]string, 0, len(r.Metrics))
			for name := range r.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Printf("  per-layer, end-to-end values above taken with tracing on:\n")
			for _, name := range names {
				fmt.Printf("  %-40s %s\n", name, r.Metrics[name])
			}
			fmt.Printf("  waterfall of the main operation, by replay:\n%s", waterfall(t, rp))
		}
		for name, m := range r.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				fmt.Printf("  INVALID: %s is %v\n", name, m.Value)
				r.Metrics[name] = metric{0, m.Unit} // keeps the last line valid JSON
				r.Correct, ok = false, false
			}
		}
		all[t.spec.name] = r
	}
	var last any = all
	if len(tallies) == 1 {
		last = all[tallies[0].spec.name]
	}
	b, _ := json.Marshal(last)
	fmt.Printf("\n%s\n", b)
	if !ok {
		return 1
	}
	return 0
}
