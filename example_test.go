package ecfrm_test

import (
	"fmt"
	"log"

	ecfrm "repro"
)

// ExampleNewScheme shows the paper's layout transformation: the same
// LRC(6,2,2) candidate deployed standard vs EC-FRM, and how an 8-element
// read's worst disk load drops (Figure 3 vs Figure 7a).
func ExampleNewScheme() {
	code, err := ecfrm.NewLRC(6, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, form := range []ecfrm.Form{ecfrm.FormStandard, ecfrm.FormECFRM} {
		scheme, err := ecfrm.NewScheme(code, form)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := scheme.PlanNormalRead(0, 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: max disk load %d over %d disks\n",
			scheme.Name(), plan.MaxLoad(), plan.ContributingDisks())
	}
	// Output:
	// LRC(6,2,2): max disk load 2 over 6 disks
	// EC-FRM-LRC(6,2,2): max disk load 1 over 8 disks
}

// ExampleNewStore walks the store through a disk failure: data written once
// reads back identically with a disk gone. The lost element's recovery set
// is the other data elements and a parity; the two that are stripe padding
// are zero by construction and cost no read, so the read costs what a
// healthy one does.
func ExampleNewStore() {
	code, _ := ecfrm.NewRS(6, 3)
	scheme, _ := ecfrm.NewScheme(code, ecfrm.FormECFRM)
	st, _ := ecfrm.NewStore(scheme, 16)

	payload := []byte("erasure coding keeps this safe across disk failures!")
	st.Append(payload)
	st.Flush()

	st.FailDisk(2)
	res, err := st.ReadAt(0, len(payload))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", res.Data)
	fmt.Printf("read cost with a failed disk: %.2f reads/element\n", res.Plan.Cost())
	// Output:
	// erasure coding keeps this safe across disk failures!
	// read cost with a failed disk: 1.00 reads/element
}

// ExampleScheme_FaultTolerance shows the framework inheriting the candidate
// code's guarantees (§IV-C, §V-B).
func ExampleScheme_FaultTolerance() {
	code, _ := ecfrm.NewLRC(6, 2, 2)
	std, _ := ecfrm.NewScheme(code, ecfrm.FormStandard)
	frm, _ := ecfrm.NewScheme(code, ecfrm.FormECFRM)
	fmt.Printf("standard: tolerates %d failures at %.3fx overhead\n",
		std.FaultTolerance(), std.StorageOverhead())
	fmt.Printf("EC-FRM:   tolerates %d failures at %.3fx overhead\n",
		frm.FaultTolerance(), frm.StorageOverhead())
	// Output:
	// standard: tolerates 3 failures at 1.667x overhead
	// EC-FRM:   tolerates 3 failures at 1.667x overhead
}
