package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/store"
)

// encodeStripes is how many stripes of the input encode hands the store per
// Append: what bounds its memory, with the store's one pending stripe.
const encodeStripes = 4

// dirFlags are the flags every data-directory command takes: the scheme
// flags and -elem, with ecfrmd's defaults, since together they are the
// geometry the directory is checked against.
type dirFlags struct {
	schemeFlags
	elem *int
}

func newDirFlags(fs *flag.FlagSet) dirFlags {
	return dirFlags{newSchemeFlags(fs), fs.Int("elem", 64<<10, "element size in bytes")}
}

// open opens data directory dir exactly as ecfrmd -backend=file opens its
// -data-dir: a geometry other than the flags' is refused before anything is
// touched, then startup recovery heals lost or torn devices in place.
func (df dirFlags) open(dir string) (*store.Store, *store.RecoveryReport, error) {
	scheme, err := df.build()
	if err != nil {
		return nil, nil, err
	}
	return store.OpenFileBacked(scheme, *df.elem, store.FileConfig{Dir: dir})
}

func cmdEncode(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	df := newDirFlags(fs)
	in := fs.String("in", "", "input file")
	out := fs.String("out", "", "output data directory (absent or empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("encode requires -in and -out")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	st, _, err := df.open(*out)
	if err != nil {
		return err
	}
	if n := st.Stripes(); n > 0 {
		st.Close()
		return fmt.Errorf("%s already holds %d stripes; encode writes a fresh directory", *out, n)
	}
	scheme := st.Scheme()
	buf := make([]byte, encodeStripes*scheme.DataPerStripe()*st.ElementSize())
	for err == nil {
		var n int
		n, err = io.ReadFull(f, buf)
		if n > 0 {
			if aerr := st.Append(buf[:n]); aerr != nil {
				err = aerr
			}
		}
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = st.Flush()
	}
	stripes, length := st.Stripes(), st.Len()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "encoded %d bytes as %s into %d stripes across %d devices in %s\n",
		length, scheme.Name(), stripes, scheme.N(), *out)
	return nil
}

func cmdDecode(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("decode", flag.ExitOnError)
	df := newDirFlags(fs)
	in := fs.String("in", "", "input data directory")
	out := fs.String("out", "", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("decode requires -in and -out")
	}
	st, rep, err := df.open(*in)
	if err != nil {
		return err
	}
	err = writeExtent(st, *out)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	printReport(w, *in, st, rep)
	fmt.Fprintf(w, "decoded %d bytes from %s (%s) into %s\n", st.Len(), *in, st.Scheme().Name(), *out)
	return nil
}

// writeExtent writes the store's bytes [0, Len()) to the file at path, one
// stripe window per read.
func writeExtent(st *store.Store, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	window := int64(st.Scheme().DataPerStripe() * st.ElementSize())
	for off := int64(0); off < st.Len() && err == nil; off += window {
		var res *store.ReadResult
		if res, err = st.ReadAt(off, int(min(window, st.Len()-off))); err == nil {
			_, err = f.Write(res.Data)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func cmdVerify(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	df := newDirFlags(fs)
	in := fs.String("in", "", "data directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("verify requires -in")
	}
	st, rep, err := df.open(*in)
	if err != nil {
		return err
	}
	printReport(w, *in, st, rep)
	return st.Close()
}

// printReport prints what opening dir found and fixed: the recovery report
// ecfrmd logs at startup.
func printReport(w io.Writer, dir string, st *store.Store, rep *store.RecoveryReport) {
	fmt.Fprintf(w, "%s: %d stripes of %s verify clean (healed %d cells, re-encoded %d stripes, truncated %d torn stripes)\n",
		dir, rep.Stripes, st.Scheme().Name(), rep.HealedCells, rep.ReencodedStripes, rep.TruncatedStripes)
}
