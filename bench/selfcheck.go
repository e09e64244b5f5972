package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// exactOnSingle are the end-to-end metrics that are counts: with one client
// and no timers in their path they must repeat exactly on single-* workloads.
var exactOnSingle = map[string]bool{
	"get_max_disk_load": true, "read_amplification": true,
	"write_amplification": true, "space_amplification": true,
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json, so
// the self-check confirms the bounds that are gated, not a copy of them.
func loadBounds(root string) (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, m := range endToEnd {
		if _, ok := bounds[m.name]; !ok {
			return nil, fmt.Errorf("BENCHMARK.json has no bound for %s", m.name)
		}
	}
	return bounds, nil
}

// selfcheck runs the suite twice on the same binary and seed (A/A) and fails,
// printing the offending rows, if an end-to-end metric differs by more than
// its bound, or an exact count differs at all. The two runs take their rounds
// in turn, so that they share the host's slow minutes: run one after the
// other, the second measures a VM that has been under load for four minutes
// longer, which on the development host alone cost it 10–27 %.
func selfcheck(h *harness, root string, todo []spec) int {
	bounds, err := loadBounds(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	both, err := suite(h, append(append([]spec(nil), todo...), todo...))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n%s", err, h.serverLogTail())
		return 1
	}
	runs := [2][]*tally{both[:len(todo)], both[len(todo):]}
	fmt.Printf("\n%-20s %-20s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "differ", "bound")
	var bad []string
	for w, ta := range runs[0] {
		tb := runs[1][w]
		ma, mb := ta.endToEndMetrics(), tb.endToEndMetrics()
		if ta.failed+tb.failed > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d and %d failed operations: %v", ta.spec.name, ta.failed, tb.failed, append(ta.errs, tb.errs...)))
		}
		for _, m := range endToEnd {
			a, b := ma[m.name].Value, mb[m.name].Value
			differ := math.Abs(b-a) / math.Min(a, b)
			row := fmt.Sprintf("%-20s %-20s %14.6g %14.6g %7.2f%% %6.0f%%", ta.spec.name, m.name, a, b, 100*differ, 100*bounds[m.name])
			switch {
			case !(differ <= bounds[m.name]): // also catches NaN
				row += "  BEYOND BOUND"
				bad = append(bad, row)
			case exactOnSingle[m.name] && strings.HasPrefix(ta.spec.name, "single-") && a != b:
				row += "  COUNT NOT EXACT"
				bad = append(bad, row)
			}
			fmt.Println(row)
		}
	}
	if len(bad) > 0 {
		fmt.Printf("\nselfcheck FAILED, %d rows:\n%s\n", len(bad), strings.Join(bad, "\n"))
		return 1
	}
	fmt.Println("\nselfcheck passed: two runs of the same binary agree within every bound")
	return 0
}
