package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/rs"
	"repro/internal/shardio"
)

func buildScheme(code string, k, l, m int, form string) (*core.Scheme, error) {
	switch strings.ToLower(code) {
	case "rs":
		rc, err := rs.New(k, m)
		if err != nil {
			return nil, err
		}
		return core.NewScheme(rc, layout.Form(form))
	case "lrc":
		lc, err := lrc.New(k, l, m)
		if err != nil {
			return nil, err
		}
		return core.NewScheme(lc, layout.Form(form))
	default:
		return nil, fmt.Errorf("unknown code %q (want rs or lrc)", code)
	}
}

// schemeFromManifest rebuilds the scheme a shard directory was written with.
func schemeFromManifest(dir string) (*core.Scheme, shardio.Manifest, error) {
	man, err := shardio.ReadManifest(dir)
	if err != nil {
		return nil, man, err
	}
	scheme, err := buildScheme(man.Code, man.K, man.L, man.M, man.Form)
	return scheme, man, err
}

func flagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ExitOnError)
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

// parallelFlag registers the shared worker-count flag; 0 means one worker
// per CPU.
func parallelFlag(fs *flag.FlagSet) *int {
	return fs.Int("parallel", 0, "pipeline workers (0 = one per CPU)")
}

func workersOf(parallel int) int {
	if parallel > 0 {
		return parallel
	}
	return runtime.GOMAXPROCS(0)
}

func cmdEncode(args []string) error {
	fs := flagSet("encode")
	sf := newSchemeFlags(fs)
	in := fs.String("in", "", "input file")
	out := fs.String("out", "", "output shard directory")
	elem := fs.Int("elem", 64<<10, "element size in bytes")
	parallel := parallelFlag(fs)
	buffered := fs.Bool("buffered", false, "buffer the whole payload in memory instead of streaming")
	fsync := fs.Bool("fsync", false, "fsync shard files, manifest, and directory after encoding")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("encode requires -in and -out")
	}
	scheme, err := sf.build()
	if err != nil {
		return err
	}
	base := shardio.Manifest{
		Code: strings.ToLower(*sf.code), K: *sf.k, L: *sf.l, M: *sf.m, Form: *sf.form,
	}
	var man shardio.Manifest
	if *buffered {
		payload, err := os.ReadFile(*in)
		if err != nil {
			return err
		}
		man, err = shardio.Encode(scheme, payload, *out, *elem, base)
		if err != nil {
			return err
		}
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		man, err = shardio.EncodeStream(scheme, f, *out, *elem, base, workersOf(*parallel))
		if err != nil {
			return err
		}
	}
	if *fsync {
		if err := shardio.Sync(scheme, *out); err != nil {
			return err
		}
	}
	fmt.Printf("encoded %d bytes as %s into %d stripes across %d disk files in %s\n",
		man.Length, scheme.Name(), man.Stripes, scheme.N(), *out)
	return nil
}

func cmdDecode(args []string) error {
	fs := flagSet("decode")
	in := fs.String("in", "", "input shard directory")
	out := fs.String("out", "", "output file")
	parallel := parallelFlag(fs)
	buffered := fs.Bool("buffered", false, "buffer the whole payload in memory instead of streaming")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("decode requires -in and -out")
	}
	scheme, man, err := schemeFromManifest(*in)
	if err != nil {
		return err
	}
	var missing int
	if *buffered {
		payload, bufMissing, err := shardio.Decode(scheme, *in)
		if err != nil {
			return err
		}
		missing = bufMissing
		if err := os.WriteFile(*out, payload, 0o644); err != nil {
			return err
		}
	} else {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		missing, err = shardio.DecodeStream(scheme, *in, f, workersOf(*parallel))
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if missing > 0 {
		fmt.Printf("decoded through %d missing disk file(s) (tolerance: %d)\n",
			missing, scheme.FaultTolerance())
	}
	fmt.Printf("decoded %d bytes from %s (%s) into %s\n", man.Length, *in, scheme.Name(), *out)
	return nil
}

func cmdVerify(args []string) error {
	fs := flagSet("verify")
	in := fs.String("in", "", "shard directory")
	parallel := parallelFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("verify requires -in")
	}
	scheme, man, err := schemeFromManifest(*in)
	if err != nil {
		return err
	}
	if err := shardio.VerifyStream(scheme, *in, workersOf(*parallel)); err != nil {
		return err
	}
	fmt.Printf("all %d stripes verify clean (%s)\n", man.Stripes, scheme.Name())
	return nil
}
