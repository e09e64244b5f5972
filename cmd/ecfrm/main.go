// Command ecfrm encodes files into erasure-coded data directories with any
// of the paper's six scheme variants, decodes them back (healing up to the
// scheme's fault tolerance in lost or torn devices), and inspects layouts
// and read plans. A data directory is the store's file backend — one
// dev_NN.data/dev_NN.crc pair per device plus backend.json — so ecfrmd
// -backend=file serves what encode writes, under the same scheme flags.
//
// Usage:
//
//	ecfrm encode -in data.bin -out data/ -code lrc -k 6 -l 2 -m 2 -form ecfrm
//	ecfrm verify -in data/
//	ecfrm decode -in data/ -out restored.bin          # heals lost devices
//	ecfrm info   -code rs -k 6 -m 3 -form ecfrm
//	ecfrm plan   -code lrc -k 6 -l 2 -m 2 -form ecfrm -start 0 -count 8 -failed 2
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "encode":
		err = cmdEncode(os.Args[2:], os.Stdout)
	case "decode":
		err = cmdDecode(os.Args[2:], os.Stdout)
	case "verify":
		err = cmdVerify(os.Args[2:], os.Stdout)
	case "info":
		err = cmdInfo(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecfrm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: ecfrm <encode|decode|verify|info|plan> [flags]
  encode -in FILE -out DIR  [-code rs|lrc -k K -l L -m M -form F -elem N]
  decode -in DIR  -out FILE [scheme flags as encode]  # heals lost devices in place
  verify -in DIR            [scheme flags as encode]  # heal, verify, report
  info   -code rs|lrc -k K [-l L] -m M -form F
  plan   -code rs|lrc -k K [-l L] -m M -form F -start S -count C [-failed D,D,...]

DIR is a store data directory, the one ecfrmd -backend=file -data-dir serves;
the scheme flags and their defaults are ecfrmd's, and a directory written
under another geometry is refused. Memory stays a few stripes however large
the file.`)
}

// schemeFlags registers the shared scheme-selection flags on fs.
type schemeFlags struct {
	code *string
	k    *int
	l    *int
	m    *int
	form *string
}

func newSchemeFlags(fs *flag.FlagSet) schemeFlags {
	return schemeFlags{
		code: fs.String("code", "lrc", "candidate code: rs or lrc"),
		k:    fs.Int("k", 6, "data elements per row"),
		l:    fs.Int("l", 2, "local parity count (lrc only)"),
		m:    fs.Int("m", 2, "parity count (rs) / global parity count (lrc)"),
		form: fs.String("form", "ecfrm", "layout form: standard, rotated, or ecfrm"),
	}
}

func (sf schemeFlags) build() (*core.Scheme, error) {
	return core.SchemeFor(*sf.code, *sf.k, *sf.l, *sf.m, *sf.form)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	sf := newSchemeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := sf.build()
	if err != nil {
		return err
	}
	lay := scheme.Layout()
	fmt.Printf("scheme:            %s\n", scheme.Name())
	fmt.Printf("disks (columns):   %d\n", scheme.N())
	fmt.Printf("rows per stripe:   %d\n", lay.Rows())
	fmt.Printf("groups per stripe: %d\n", lay.Groups())
	fmt.Printf("data elems/stripe: %d\n", scheme.DataPerStripe())
	fmt.Printf("cells per stripe:  %d\n", scheme.CellsPerStripe())
	fmt.Printf("fault tolerance:   any %d concurrent disk failures\n", scheme.FaultTolerance())
	fmt.Printf("storage overhead:  %.3fx\n", scheme.StorageOverhead())
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	sf := newSchemeFlags(fs)
	start := fs.Int("start", 0, "first data element")
	count := fs.Int("count", 8, "number of data elements")
	failed := fs.String("failed", "", "comma-separated failed disks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme, err := sf.build()
	if err != nil {
		return err
	}
	failedDisks, err := parseInts(*failed)
	if err != nil {
		return err
	}
	var plan *core.Plan
	if len(failedDisks) == 0 {
		plan, err = scheme.PlanNormalRead(*start, *count)
	} else {
		plan, err = scheme.PlanDegradedRead(*start, *count, failedDisks)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: read elements [%d,%d), failed disks %v\n",
		scheme.Name(), *start, *start+*count, failedDisks)
	fmt.Printf("total element reads: %d   cost: %.3f   max disk load: %d   disks used: %d\n",
		plan.TotalReads(), plan.Cost(), plan.MaxLoad(), plan.ContributingDisks())
	fmt.Print("per-disk loads: ")
	for d, l := range plan.Loads {
		if d > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("d%d:%d", d, l)
	}
	fmt.Println()
	for _, a := range plan.Reads {
		fmt.Printf("  disk %2d  stripe %3d  cell (%d,%d)\n", a.Disk, a.Stripe, a.Pos.Row, a.Pos.Col)
	}
	return nil
}

func parseInts(csv string) ([]int, error) {
	if csv == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad disk list %q: %v", csv, err)
		}
		out = append(out, v)
	}
	return out, nil
}
