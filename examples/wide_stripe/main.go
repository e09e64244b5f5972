// Wide-stripe example: the paper's Table I codes span at most 15 disks, but
// cloud deployments stripe across a hundred or more to cut storage overhead.
// This example builds RS(128,8) over GF(2^8) — the same engine as the
// paper-scale codes, which serves any n = k+m ≤ 256 — runs it through the
// EC-FRM framework, and round-trips an 8-disk-failure recovery.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/layout"
	"repro/internal/rs"
)

func main() {
	const k, m = 128, 8
	code, err := rs.New(k, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wide Reed-Solomon over GF(2^8): k=%d data + m=%d parity = %d shards, tolerance %d\n",
		code.K(), code.M(), code.N(), code.FaultTolerance())
	fmt.Printf("storage overhead %.4fx\n", float64(k+m)/float64(k))
	fmt.Printf("SIMD gf kernels enabled: %v\n\n", gf.SIMDEnabled())

	scheme := core.MustScheme(code, layout.FormECFRM)
	const shardBytes = 4 << 10
	rng := rand.New(rand.NewSource(1))
	data := make([][]byte, scheme.DataPerStripe())
	for i := range data {
		data[i] = make([]byte, shardBytes)
		rng.Read(data[i])
	}
	cells, err := scheme.EncodeStripe(data)
	if err != nil {
		log.Fatal(err)
	}
	n := scheme.N()
	fmt.Printf("encoded %d KiB of data under %s (%d rows × %d disks)\n",
		len(data)*shardBytes>>10, scheme.Name(), len(cells)/n, n)

	// Fail m whole disks at random and reconstruct every lost cell.
	failed := rng.Perm(n)[:m]
	down := make(map[int]bool, m)
	for _, d := range failed {
		down[d] = true
	}
	broken := make([][]byte, len(cells))
	for i, s := range cells {
		if !down[scheme.Layout().Disk(0, i%n)] {
			broken[i] = append([]byte(nil), s...)
		}
	}
	fmt.Printf("failed %d disks: %v\n", m, failed)
	if err := scheme.ReconstructStripe(broken); err != nil {
		log.Fatal(err)
	}
	for i := range cells {
		if !bytes.Equal(broken[i], cells[i]) {
			log.Fatalf("cell %d mismatch after recovery", i)
		}
	}
	fmt.Printf("all %d cells verified after recovery — wide-stripe MDS holds\n", len(cells))

	// Degraded read: one disk down, the planner picks survivor sets.
	plan, err := scheme.PlanDegradedRead(0, scheme.DataPerStripe(), failed[:1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degraded read with disk %d down: %d reads, cost %.3f, max disk load %d\n",
		failed[0], plan.TotalReads(), plan.Cost(), plan.MaxLoad())
}
