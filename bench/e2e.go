package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// client is one closed-loop caller: it sends its next request only after
// the previous reply has been read to the end and checked.
type client struct {
	hc       *http.Client
	base     string
	pool     []byte
	body     bytes.Buffer
	tr       *tracer // with workload, where this client's spans go
	workload string
}

func newClient(base string, pool []byte, tr *tracer, workload string) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 2},
			Timeout:   60 * time.Second,
		},
		base: base, pool: pool, tr: tr, workload: workload,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// put stores o and returns the latency in ms from request start to the end
// of the reply.
func (c *client) put(o object) (float64, error) {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPut, c.base+"/objects/"+o.name, bytes.NewReader(c.pool[o.off:o.off+o.size]))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	c.tr.span(c.workload, "client.put", o.name, "", t0, t1)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusCreated {
		return 0, fmt.Errorf("PUT %s: %s: %s", o.name, resp.Status, bytes.TrimSpace(c.body.Bytes()))
	}
	return ms(t1.Sub(t0)), nil
}

// get fetches o, bypassing the decoded-object cache unless cached is set,
// checks the body against o's CRC, and returns the latency in ms and the
// most-loaded disk's element count the server reports for the read.
func (c *client) get(o object, cached bool) (float64, int, error) {
	url := c.base + "/objects/" + o.name
	if !cached {
		url += "?nocache=1"
	}
	t0 := time.Now()
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	c.tr.span(c.workload, "client.get", o.name, "", t0, t1)
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET %s: %s: %s", o.name, resp.Status, bytes.TrimSpace(c.body.Bytes()))
	}
	if c.body.Len() != o.size || crc32.ChecksumIEEE(c.body.Bytes()) != o.crc {
		return 0, 0, fmt.Errorf("GET %s: body of %d bytes fails its CRC (want %d bytes)", o.name, c.body.Len(), o.size)
	}
	load, err := strconv.Atoi(resp.Header.Get("X-Max-Disk-Load"))
	if err != nil {
		return 0, 0, fmt.Errorf("GET %s: X-Max-Disk-Load %q", o.name, resp.Header.Get("X-Max-Disk-Load"))
	}
	return ms(t1.Sub(t0)), load, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// harness is what every round shares: the built server binary, the sandbox
// its processes and directories live in, and the seeded payload pool.
type harness struct {
	sb     *sandbox
	bin    string // built cmd/ecfrmd
	pool   []byte
	seed   int64
	tr     *tracer // nil unless tracing
	logDir string  // server logs of the current run
}

// cluster is the server side of one round.
type cluster struct {
	h     *harness
	base  string      // object API
	cmds  []*exec.Cmd // every server process, API server last
	nodes []string    // node base URLs (gateway mode)
	dirs  []string
}

// freePorts asks the kernel for n unused loopback ports.
func freePorts(n int) ([]int, error) {
	var ports []int
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// waitReady polls url until it answers 200.
func waitReady(url string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 15s (last error: %v)", url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// startCluster spawns fresh server processes on empty data directories and
// waits until the object API is ready. Flags not listed are ecfrmd's
// shipped defaults: LRC(6,2,2), ecfrm layout, 64 KiB elements, fan-out
// reads, 2 ms WAL flush interval.
func (h *harness) startCluster(s spec) (*cluster, error) {
	c := &cluster{h: h}
	nproc := 1
	if s.gateway {
		nproc = 4
	}
	ports, err := freePorts(nproc)
	if err != nil {
		return c, err
	}
	spawn := func(label string, port int, args ...string) error {
		args = append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)
		cmd, err := h.sb.start(h.bin, filepath.Join(h.logDir, label+".log"), args...)
		if err != nil {
			return err
		}
		c.cmds = append(c.cmds, cmd)
		return nil
	}
	dataDir := func(label string) (string, error) {
		dir, err := h.sb.mkdir(label)
		if err == nil {
			c.dirs = append(c.dirs, dir)
		}
		return dir, err
	}
	if !s.gateway {
		dir, err := dataDir(s.name)
		if err != nil {
			return c, err
		}
		if err := spawn(s.name, ports[0], "-backend=file", "-data-dir", dir, "-fsync=always"); err != nil {
			return c, err
		}
	} else {
		for n := 1; n <= 3; n++ {
			dir, err := dataDir(fmt.Sprintf("node%d", n))
			if err != nil {
				return c, err
			}
			if err := spawn(fmt.Sprintf("node%d", n), ports[n], "-mode=node", "-backend=file", "-data-dir", dir, "-fsync=always"); err != nil {
				return c, err
			}
			c.nodes = append(c.nodes, fmt.Sprintf("http://127.0.0.1:%d", ports[n]))
		}
		for _, n := range c.nodes {
			if err := waitReady(n + "/readyz"); err != nil {
				return c, err
			}
		}
		// LRC(6,2,2) over three nodes is refused by placement.CheckTolerance
		// (four disks of a group on one node, tolerance three), so the
		// gateway runs RS(6,3): three disks of each group per node.
		if err := spawn("gateway", ports[0], "-mode=gateway", "-nodes", strings.Join(c.nodes, ","),
			"-code", "rs", "-k", "6", "-m", "3", "-groups", "4", "-probe-interval", "200ms", "-fsync=always"); err != nil {
			return c, err
		}
	}
	c.base = fmt.Sprintf("http://127.0.0.1:%d", ports[0])
	return c, waitReady(c.base + "/readyz")
}

func (c *cluster) pids() []int {
	var pids []int
	for _, cmd := range c.cmds {
		pids = append(pids, cmd.Process.Pid)
	}
	return pids
}

// stop drains the API server first, then the nodes, and removes the data
// directories. An unclean exit is an error.
func (c *cluster) stop() error {
	var first error
	for i := len(c.cmds) - 1; i >= 0; i-- {
		if err := c.h.sb.stop(c.cmds[i], 20*time.Second); err != nil && first == nil {
			first = fmt.Errorf("server exit: %w", err)
		}
	}
	for _, dir := range c.dirs {
		c.h.sb.rmdir(dir)
	}
	return first
}

// series is one scrape of a Prometheus text exposition: series name with
// its label set, verbatim, to value.
type series map[string]float64

func parseSeries(r io.Reader) (series, error) {
	out := series{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named family whose label set contains all of
// the given fragments (for example `op="read"`).
func (s series) sum(family string, labels ...string) float64 {
	total := 0.0
next:
	for name, v := range s {
		name, _, _ = strings.Cut(name, "@") // scrapeAll's node tag
		if name != family && !strings.HasPrefix(name, family+"{") {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(name, l) {
				continue next
			}
		}
		total += v
	}
	return total
}

// sub is the change in every series since an earlier scrape.
func (s series) sub(earlier series) series {
	out := series{}
	for k, v := range s {
		out[k] = v - earlier[k]
	}
	return out
}

func scrape(url string) (series, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseSeries(resp.Body)
}

// scrapeAll merges the API server's and, in gateway mode, the nodes'
// expositions. The families do not overlap (ecfrm_node_* are node-side).
func (c *cluster) scrapeAll() (series, error) {
	all, err := scrape(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	for i, n := range c.nodes {
		s, err := scrape(n + "/metrics")
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			all[fmt.Sprintf("%s@node%d", k, i+1)] = v
		}
	}
	return all, nil
}

// post issues an admin POST and returns the reply body.
func post(url string) ([]byte, error) {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// scrubClean has the server verify the parity of every sealed stripe.
func scrubClean(base string) error {
	body, err := post(base + "/admin/scrub")
	if err != nil {
		return err
	}
	var out struct {
		Corrupt []int `json:"corrupt_stripes"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("scrub reply %q: %v", body, err)
	}
	if len(out.Corrupt) > 0 {
		return fmt.Errorf("scrub found corrupt stripes %v", out.Corrupt)
	}
	return nil
}

// tally is what a run accumulates over its rounds.
type tally struct {
	spec                 spec
	attempted, failed    int
	errs                 []string // first few failures, verbatim
	getMs, putMs         []float64
	quietGetMs           []float64 // gateway-mixed: read-back GETs, after both loops have ended
	getBlocks, putBlocks []block
	loadSum              float64 // Σ X-Max-Disk-Load over measured GETs
	getBytes             int64   // Σ user bytes of measured GETs, abandoned blocks included
	// One entry per round.
	setupS, rssMB, readAmp, writeAmp, spaceAmp []float64
	phaseCPUMs                                 []float64     // gateway-mixed: server CPU ms per operation of the concurrent phase
	getP50, putP50, stealPct                   []float64     // informative: how much rounds differ
	counters                                   series        // Σ over rounds of the measured-phase counter deltas
	walltime, longest                          time.Duration // of all rounds, of the longest one
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// runBlock performs the block's operations back to back. A failed operation
// is counted and has no latency. stop, when non-nil, abandons the block once
// closed; an abandoned block's throughput is not kept. pids, when non-nil,
// are the servers whose CPU time over the block is kept with it.
func (t *tally) runBlock(c *client, objs []object, idx []int, isPut bool, stop <-chan struct{}, pids []int) {
	b := block{}
	cpu0, cpuErr := cpuSeconds(pids)
	t0 := time.Now()
	for _, i := range idx {
		if stop != nil {
			select {
			case <-stop:
				return
			default:
			}
		}
		t.attempted++
		if isPut {
			lat, err := c.put(objs[i])
			if err != nil {
				t.fail(err)
				continue
			}
			t.putMs = append(t.putMs, lat)
		} else {
			lat, load, err := c.get(objs[i], false)
			if err != nil {
				t.fail(err)
				continue
			}
			t.getMs = append(t.getMs, lat)
			t.loadSum += float64(load)
			t.getBytes += int64(objs[i].size)
		}
		b.ops++
		b.bytes += int64(objs[i].size)
	}
	b.wallS = time.Since(t0).Seconds()
	cpu1, err := cpuSeconds(pids)
	if cpuErr != nil || err != nil {
		t.fail(fmt.Errorf("server CPU time: %v", errors.Join(cpuErr, err)))
	}
	b.cpuS = cpu1 - cpu0
	if isPut {
		t.putBlocks = append(t.putBlocks, b)
	} else {
		t.getBlocks = append(t.getBlocks, b)
	}
}

// round runs one round of the workload: fresh servers on empty directories,
// set-up, the measured phases, counter scrapes, checks, and teardown.
func (h *harness) round(t *tally, idx int) (err error) {
	s := t.spec
	start := time.Now()
	plan := planRound(s, h.pool, h.seed, idx)
	gets0, puts0 := len(t.getMs), len(t.putMs)

	// ---- set-up: spawn → ready → preload → one warm-up pass of GETs, so
	// connections, lazily built tables and the page cache are in place
	// before anything is timed.
	c, err := h.startCluster(s)
	defer func() {
		if cerr := c.stop(); cerr != nil && err == nil {
			err = cerr
		}
		d := time.Since(start)
		t.walltime += d
		t.longest = max(t.longest, d)
	}()
	if err != nil {
		return err
	}
	cl := newClient(c.base, h.pool, nil, s.name)
	defer cl.close()
	for _, i := range plan.preload {
		t.attempted++
		if _, err := cl.put(plan.objs[i]); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	for _, i := range plan.preload {
		t.attempted++
		if _, _, err := cl.get(plan.objs[i], false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	setup := time.Since(start).Seconds()
	cl.tr = h.tr
	steal0, total0 := hostSteal()

	// ---- measured phases, each between two counter scrapes. Single mode runs
	// the PUT blocks, checks parity, fails the disks of a degraded workload,
	// then runs the GET blocks; the gateway workload runs both loops at once
	// on a client each.
	counters := series{}
	getBytes0 := t.getBytes
	measured := func(run func()) error {
		before, err := c.scrapeAll()
		if err != nil {
			return err
		}
		run()
		after, err := c.scrapeAll()
		if err != nil {
			return err
		}
		for k, v := range after.sub(before) {
			counters[k] += v
		}
		return nil
	}
	pids := c.pids()
	if s.gateway {
		err = measured(func() {
			// Two loops share the servers, so their CPU time is taken over
			// the whole phase, not per block. The PUT loop tallies separately
			// so the two goroutines share nothing; it is merged once both
			// have ended.
			cpu0, err0 := cpuSeconds(pids)
			ops0 := len(t.getMs) + len(t.putMs)
			pt := &tally{spec: s}
			pcl := newClient(c.base, h.pool, h.tr, s.name)
			defer pcl.close()
			putsDone := make(chan struct{})
			go func() {
				defer close(putsDone)
				for _, b := range plan.putBlocks {
					pt.runBlock(pcl, plan.objs, b, true, nil, nil)
				}
			}()
			for _, b := range plan.getBlocks {
				t.runBlock(cl, plan.objs, b, false, putsDone, nil)
				select {
				case <-putsDone:
				default:
					continue
				}
				break
			}
			<-putsDone
			t.attempted += pt.attempted
			t.failed += pt.failed
			t.errs = append(t.errs, pt.errs...)
			t.putMs = append(t.putMs, pt.putMs...)
			t.putBlocks = append(t.putBlocks, pt.putBlocks...)
			cpu1, err1 := cpuSeconds(pids)
			if err := errors.Join(err0, err1); err != nil {
				t.fail(fmt.Errorf("server CPU time: %v", err))
			}
			t.phaseCPUMs = append(t.phaseCPUMs, (cpu1-cpu0)*1e3/float64(max(len(t.getMs)+len(t.putMs)-ops0, 1)))
		})
		if err != nil {
			return err
		}
	} else {
		err := measured(func() {
			for _, b := range plan.putBlocks {
				t.runBlock(cl, plan.objs, b, true, nil, pids)
			}
		})
		if err != nil {
			return err
		}
		// Parity of every stripe, while every disk can still be read.
		if err := scrubClean(c.base); err != nil {
			return err
		}
		for _, d := range s.failDisks {
			if _, err := post(fmt.Sprintf("%s/admin/fail?disk=%d", c.base, d)); err != nil {
				return err
			}
		}
		err = measured(func() {
			for _, b := range plan.getBlocks {
				t.runBlock(cl, plan.objs, b, false, nil, pids)
			}
		})
		if err != nil {
			return err
		}
	}

	// ---- totals since the servers started, memory, space.
	totals, err := c.scrapeAll()
	if err != nil {
		return err
	}
	var putBytes = bytesOf(plan.objs, plan.preload)
	for _, b := range plan.putBlocks {
		putBytes += bytesOf(plan.objs, b)
	}
	var readBytes, writeBytes float64
	if s.gateway {
		readBytes = counters.sum("ecfrm_gateway_node_read_bytes_total")
		writeBytes = totals.sum("ecfrm_gateway_node_write_bytes_total")
	} else {
		readBytes = counters.sum("ecfrm_disk_element_reads_total") * elemBytes
		writeBytes = totals.sum("ecfrm_disk_element_writes_total")*elemBytes + totals.sum("ecfrm_wal_log_bytes")
	}
	rss, err := peakRSSMB(c.pids())
	if err != nil {
		return err
	}
	stored, err := dirBytes(c.dirs...)
	if err != nil {
		return err
	}
	if t.failed == 0 {
		// With a failed operation the byte totals above are not what was
		// acked; the run is incorrect anyway and the ratios would mislead.
		t.readAmp = append(t.readAmp, readBytes/float64(t.getBytes-getBytes0))
		t.writeAmp = append(t.writeAmp, writeBytes/float64(putBytes))
		t.spaceAmp = append(t.spaceAmp, float64(stored)/float64(putBytes))
	}
	t.setupS = append(t.setupS, setup)
	t.rssMB = append(t.rssMB, rss)
	if t.counters == nil {
		t.counters = series{}
	}
	for k, v := range counters {
		t.counters[k] += v
	}
	steal1, total1 := hostSteal()
	t.stealPct = append(t.stealPct, 100*(steal1-steal0)/(total1-total0))
	t.getP50 = append(t.getP50, median(t.getMs[gets0:]))
	t.putP50 = append(t.putP50, median(t.putMs[puts0:]))

	// ---- every object PUT in a measured block reads back intact (GET blocks
	// already CRC-check what they fetch).
	if !s.putPrimary { // whose GET blocks have done so
		for _, b := range plan.putBlocks {
			for _, i := range b {
				t.attempted++
				lat, _, err := cl.get(plan.objs[i], false)
				if err != nil {
					t.fail(fmt.Errorf("read-back: %w", err))
					continue
				}
				if s.gateway {
					t.quietGetMs = append(t.quietGetMs, lat)
				}
			}
		}
	}
	return nil
}

// The eleven end-to-end metrics, in the order they are printed.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"get_p50_ms", "ms"},
	{"get_mb_per_s", "MB/s"},
	{"get_max_disk_load", "elements"},
	{"put_p50_ms", "ms"},
	{"put_mb_per_s", "MB/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"read_amplification", "ratio"},
	{"write_amplification", "ratio"},
	{"space_amplification", "ratio"},
}

// endToEndMetrics reduces a tally to the end-to-end metrics. Every timing is
// a median: over operations for latency, over blocks for throughput, over
// rounds for the rest. A mean or a maximum would be set by the handful of
// 100–400 ms stalls a shared two-core host throws into every run.
func (t *tally) endToEndMetrics() map[string]metric {
	cpu := blockCPUMs(t.getBlocks)
	switch {
	case t.spec.putPrimary:
		cpu = blockCPUMs(t.putBlocks)
	case t.spec.gateway:
		cpu = t.phaseCPUMs
	}
	v := map[string]float64{
		"setup_s":             median(t.setupS),
		"get_p50_ms":          median(t.getMs),
		"get_mb_per_s":        median(blockMBps(t.getBlocks)),
		"get_max_disk_load":   t.loadSum / float64(max(len(t.getMs), 1)),
		"put_p50_ms":          median(t.putMs),
		"put_mb_per_s":        median(blockMBps(t.putBlocks)),
		"cpu_ms_per_op":       median(cpu),
		"peak_rss_mb":         median(t.rssMB),
		"read_amplification":  median(t.readAmp),
		"write_amplification": median(t.writeAmp),
		"space_amplification": median(t.spaceAmp),
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// serverLogTail returns the last lines of every server log of the run, for
// the error report of a round that failed.
func (h *harness) serverLogTail() string {
	var sb strings.Builder
	logs, _ := filepath.Glob(filepath.Join(h.logDir, "*.log"))
	for _, l := range logs {
		b, err := os.ReadFile(l)
		if err != nil || len(b) == 0 {
			continue
		}
		if len(b) > 2000 {
			b = b[len(b)-2000:]
		}
		fmt.Fprintf(&sb, "--- %s\n%s\n", filepath.Base(l), b)
	}
	return sb.String()
}
