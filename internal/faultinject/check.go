package faultinject

import (
	"bytes"
	"fmt"

	"repro/internal/store"
)

// CheckStore verifies the store's end-state invariants after a fault
// schedule, with the store's backend decorator — the fault plan — lifted
// for the duration of the check (the checker inspects the store, not the
// plan):
//
//  1. Decode correctness — the first len(want) logical bytes read back
//     equal want, through whatever failures are still outstanding.
//  2. Self-repair — every cell whose checksum fails is healable, and after
//     healing, checksums verify clean and every stripe scrubs
//     parity-consistent. (Skipped while disks are failed: scrubbing reads
//     every cell, so recover first for the full check.)
//  3. Placement — per stripe, every code group still occupies one element
//     on each of the n disks (Lemma 1's precondition), and every device
//     holds exactly one cell per stripe-row.
//
// A nil error is the "within tolerance" verdict: no byte was silently
// wrong, nothing unrecoverable happened, geometry is intact.
func CheckStore(st *store.Store, want []byte) error {
	defer st.WrapBackends(st.WrapBackends(nil))

	// 1. Every logical byte decodes correctly.
	if len(want) > 0 {
		res, err := st.ReadAt(0, len(want))
		if err != nil {
			return fmt.Errorf("faultinject: decode check: %w", err)
		}
		if !bytes.Equal(res.Data, want) {
			i := 0
			for i < len(want) && res.Data[i] == want[i] {
				i++
			}
			return fmt.Errorf("faultinject: decode check: byte %d differs (got %#x want %#x)",
				i, res.Data[i], want[i])
		}
	}

	// 3. Placement: one element of every group per disk, per stripe, and
	// full devices. Checked before scrub so geometry violations surface
	// even when failures block the repair checks.
	if err := checkPlacement(st); err != nil {
		return err
	}

	if len(st.FailedDisks()) > 0 {
		return nil // scrub reads every cell; recover first for a full check
	}

	// 2. Heal whatever checksum damage remains, then everything must
	// verify clean and scrub parity-consistent.
	flagged := make(map[int]int) // per stripe: cells failing their checksum
	var stripes []int
	for _, bad := range st.VerifyChecksums() {
		if flagged[bad.Stripe] == 0 {
			stripes = append(stripes, bad.Stripe)
		}
		flagged[bad.Stripe]++
	}
	for _, stripe := range stripes {
		want := flagged[stripe]
		healed, err := st.HealStripe(stripe)
		if err != nil {
			return fmt.Errorf("faultinject: heal stripe %d: %w", stripe, err)
		}
		if healed != want {
			return fmt.Errorf("faultinject: stripe %d healed %d cells, %d flagged corrupt", stripe, healed, want)
		}
	}
	if bad := st.VerifyChecksums(); len(bad) > 0 {
		return fmt.Errorf("faultinject: %d cells still fail checksums after healing (first %+v)", len(bad), bad[0])
	}
	badStripes, err := st.Scrub()
	if err != nil {
		return fmt.Errorf("faultinject: scrub: %w", err)
	}
	if len(badStripes) > 0 {
		return fmt.Errorf("faultinject: scrub found parity-inconsistent stripes %v", badStripes)
	}
	return nil
}

// checkPlacement re-verifies Lemma 1's placement precondition on the live
// store: within every stripe, each code group has exactly one element on
// every disk, and each device holds exactly Rows() cells per stripe.
func checkPlacement(st *store.Store) error {
	lay := st.Scheme().Layout()
	n := lay.N()
	for stripe := 0; stripe < st.Stripes(); stripe++ {
		for g := 0; g < lay.Groups(); g++ {
			disks := make(map[int]int, n)
			for t := 0; t < n; t++ {
				disks[lay.Disk(stripe, lay.GroupCell(g, t).Col)]++
			}
			if len(disks) != n {
				return fmt.Errorf("faultinject: stripe %d group %d spans %d disks, want %d (Lemma 1 violated)",
					stripe, g, len(disks), n)
			}
			for d, c := range disks {
				if c != 1 {
					return fmt.Errorf("faultinject: stripe %d group %d places %d elements on disk %d, want 1",
						stripe, g, c, d)
				}
			}
		}
	}
	for d := 0; d < n; d++ {
		want := st.Stripes() * lay.Rows()
		if got := st.DiskElements(d); got != want {
			return fmt.Errorf("faultinject: device %d holds %d cells, want %d", d, got, want)
		}
	}
	return nil
}
