package main

import (
	"log"
	"strings"

	"repro/internal/gateway"
	"repro/internal/store"
)

// runGateway serves the object API over the data nodes in -nodes: one real
// store per placement group whose devices are HTTP cell clients, so fan-out,
// hedging, degraded replanning, and group-commit WAL writes all run across
// the network unchanged, behind the same object surface as single mode.
func runGateway() {
	var urls []string
	for _, u := range strings.Split(*nodesFlag, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("ecfrmd: -mode=gateway requires -nodes (comma-separated base URLs)")
	}
	scheme := buildScheme()
	gw, err := gateway.New(gateway.Config{
		Nodes:         urls,
		Groups:        *groups,
		ElemSize:      *elem,
		Scheme:        scheme,
		HTTP:          httpConfig(nil, ""), // the gateway creates the registry
		Read:          readOptions(),
		NodeTimeout:   *nodeTimeout,
		ProbeInterval: *probeEvery,
		SyncWrites:    *fsync == string(store.FsyncAlways),
		Recover:       *gwRecover,
	})
	if err != nil {
		log.Fatal("ecfrmd: ", err)
	}
	log.Printf("gateway: %s over %d nodes, %d groups, elem %d, tolerates %d disk failures per group, on %s",
		scheme.Name(), len(urls), *groups, *elem, scheme.FaultTolerance(), *addr)
	serveObjects(gw.Server(), gw, gw.Close)
}
