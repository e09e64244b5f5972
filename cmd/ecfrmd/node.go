package main

import (
	"log"

	"repro/internal/datanode"
	"repro/internal/obs"
)

// runNode serves one data node: per-(group,disk) cell extents behind the
// nodeapi HTTP protocol. All erasure-coding intelligence stays on the
// gateway; the node stores cells and checksums verbatim, which is exactly
// why it needs none of the scheme flags.
func runNode() {
	cfg := datanode.Config{
		ElemSize: *elem,
		Registry: obs.NewRegistry(),
	}
	switch *backend {
	case "mem":
	case "file":
		if *dataDir == "" {
			log.Fatal("ecfrmd: -mode=node -backend=file requires -data-dir")
		}
		cfg.Dir = *dataDir
	default:
		log.Fatalf("ecfrmd: unknown backend %q (mem or file)", *backend)
	}
	n, err := datanode.New(cfg)
	if err != nil {
		log.Fatal("ecfrmd: ", err)
	}
	log.Printf("data node (%s backend, elem %d) on %s", n.Backend(), *elem, *addr)
	serveUntilSignalled(n,
		func() { n.SetDraining(true) },
		n.Close)
}
