package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/store"
)

// nodeClient is the gateway's connection to one data node: a pooled HTTP
// client and its traffic counters. Requests queue in the transport's
// connection pool. A node's one health signal lives in the group stores:
// each device's hard-error count, which the repair scheduler's detector
// reads.
type nodeClient struct {
	base string // http://host:port, no trailing slash
	hc   *http.Client

	readBytes  *obs.Counter // cell payload bytes fetched from this node
	writeBytes *obs.Counter // cell payload bytes shipped to this node
	errs       *obs.Counter
	upGauge    *obs.Gauge
}

func newNodeClient(id int, base string, timeout time.Duration, reg *obs.Registry) *nodeClient {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	dialer := &net.Dialer{}
	tr := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     60 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			return frameConn{c}, err // the transport drops a failed dial's conn
		},
	}
	nc := &nodeClient{
		base: base,
		hc:   &http.Client{Transport: tr, Timeout: timeout},
	}
	l := obs.L("node", fmt.Sprint(id))
	nc.readBytes = reg.Counter("ecfrm_gateway_node_read_bytes_total",
		"Cell payload bytes fetched per node.", l)
	nc.writeBytes = reg.Counter("ecfrm_gateway_node_write_bytes_total",
		"Cell payload bytes shipped per node.", l)
	nc.errs = reg.Counter("ecfrm_gateway_node_errors_total",
		"Failed node requests per node.", l)
	nc.upGauge = reg.Gauge("ecfrm_gateway_node_up",
		"1 while the node answers health probes.", l)
	nc.upGauge.Set(1)
	return nc
}

// frameConn is a node connection whose ReadFrom — how net/http sends a
// request body once its headers are out — copies through a pooled buffer,
// where the TCP connection's own would allocate 32 KiB per write frame.
type frameConn struct{ net.Conn }

var copyBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

func (c frameConn) ReadFrom(r io.Reader) (int64, error) {
	buf := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(buf)
	return io.CopyBuffer(struct{ io.Writer }{c.Conn}, r, *buf)
}

// do runs one request, counting a transport failure its caller did not cause.
func (nc *nodeClient) do(req *http.Request) (*http.Response, error) {
	resp, err := nc.hc.Do(req)
	if err != nil && req.Context().Err() == nil {
		nc.errs.Inc()
	}
	return resp, err
}

// call sends one request and returns the reply, which must carry status
// want: any other is an error (errBody). The caller closes the reply.
func (nc *nodeClient) call(method, path string, body io.Reader, want int) (*http.Response, error) {
	req, err := http.NewRequest(method, nc.base+path, body)
	if err != nil {
		return nil, err
	}
	resp, err := nc.do(req)
	if err == nil && resp.StatusCode != want {
		nc.errs.Inc()
		return nil, errBody(nc, resp)
	}
	return resp, err
}

// drainClose discards and closes a response body so the connection returns
// to the pool.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// errBody builds an error out of a non-2xx response.
func errBody(nc *nodeClient, resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	return fmt.Errorf("node %s: %s: %s", nc.base, resp.Status, bytes.TrimSpace(b))
}

// healthz probes the node's liveness endpoint with a short deadline.
func (nc *nodeClient) healthz(timeout time.Duration) bool {
	req, err := http.NewRequest(http.MethodGet, nc.base+"/healthz", nil)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := nc.hc.Do(req.WithContext(ctx))
	if err != nil {
		return false
	}
	drainClose(resp)
	return resp.StatusCode == http.StatusOK
}

// nodeManifest keeps one group store's store.Manifest on the data nodes:
// each stores a copy verbatim (nodeapi.ManifestPath), so whichever nodes
// answer at the next open tell it what the group was written as.
type nodeManifest struct {
	nodes []*nodeClient
	group int
}

func (m nodeManifest) String() string { return fmt.Sprintf("group %d on the nodes", m.group) }

// Load reads every node's copy, skipping a node that does not answer (the
// open finds it down) or holds none. The copies must agree on the geometry,
// and the one recording the most stripes is the newest.
func (m nodeManifest) Load() (best store.Manifest, err error) {
	for _, nc := range m.nodes {
		resp, err := nc.call(http.MethodGet, nodeapi.ManifestPath(m.group), nil, http.StatusOK)
		if err != nil {
			continue
		}
		var man store.Manifest
		err = json.NewDecoder(resp.Body).Decode(&man)
		drainClose(resp)
		switch {
		case err == io.EOF: // no copy
		case err != nil:
			return best, fmt.Errorf("node %s: %w", nc.base, err)
		case best.Scheme != "" && man.Geometry() != best.Geometry():
			return best, fmt.Errorf("node %s holds a copy written as %s, another node one written as %s",
				nc.base, man.Geometry(), best.Geometry())
		case man.Stripes > best.Stripes || man.Stripes == best.Stripes && man.Length >= best.Length:
			best = man
		}
	}
	return best, nil
}

// Save writes the copy to every node. A node that does not take it keeps
// its older copy, which Load outranks; only a copy no node took is an
// error.
func (m nodeManifest) Save(man store.Manifest) error {
	raw, _ := json.Marshal(man) // a Manifest always marshals
	var errs []error
	for _, nc := range m.nodes {
		resp, err := nc.call(http.MethodPut, nodeapi.ManifestPath(m.group), bytes.NewReader(raw), http.StatusNoContent)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		drainClose(resp)
	}
	if len(errs) == len(m.nodes) {
		return fmt.Errorf("no node took the manifest: %w", errors.Join(errs...))
	}
	return nil
}

// remoteCell is one (group, disk) extent on one node, as a store.CellBackend.
// The whole single-process store machinery — fan-out runs, degraded
// replanning, the two-phase commit barrier — drives the cluster
// through this type. A batch may hold runs of every disk of the group the
// node serves (store.CellStoreConfig.NodeOf), and goes out as one request.
type remoteCell struct {
	nc    *nodeClient
	group int
	disk  int
	elem  int
}

func (rc *remoteCell) url(path string) string { return rc.nc.base + path }

// piece is the part of a batch's run one request carries: n cells from the
// run's from-th, or a whole zero run of n cells.
type piece struct {
	run, from, n int
	zero         bool
}

// requests cuts a batch into the requests the node accepts — at most
// nodeapi.MaxBatchRuns runs and nodeapi.MaxCells payload cells each, a
// longer run split across requests; a write's zero run ships no cells, so
// it is never split and fills no room. A batch that fits, as every seal and
// every read pass below 64 MiB per node does, is one request.
func (rc *remoteCell) requests(runs []store.Run, write bool) [][]piece {
	limit := nodeapi.MaxCells(rc.elem)
	var reqs [][]piece
	var cur []piece
	room := limit
	for i, r := range runs {
		if write && r.Zeros() {
			if len(cur) == nodeapi.MaxBatchRuns {
				reqs, cur = append(reqs, cur), nil
			}
			cur = append(cur, piece{run: i, n: r.Count, zero: true})
			continue
		}
		left, from := r.Count, 0
		if write {
			left = len(r.CRCs)
		}
		for first := true; first || left > 0; first = false {
			if len(cur) == nodeapi.MaxBatchRuns || room == 0 && left > 0 {
				reqs, cur, room = append(reqs, cur), nil, limit
			}
			n := min(left, room)
			cur = append(cur, piece{run: i, from: from, n: n})
			from, left, room = from+n, left-n, room-n
		}
	}
	return append(reqs, cur)
}

// path is a request's URL: its pieces as the run list.
func (rc *remoteCell) path(runs []store.Run, req []piece, sync bool) string {
	refs := make([]nodeapi.RunRef, len(req))
	for j, p := range req {
		refs[j] = nodeapi.RunRef{Group: rc.group, Disk: runs[p.run].Disk, Slot: runs[p.run].Slot + p.from, Count: p.n, Zero: p.zero}
	}
	return rc.url(nodeapi.RunsPath(refs, sync))
}

// ReadRuns reads the batch, one request per cut (requests), into each run's
// buffers (store.Run.ReadBuffers). A request that fails — transport, status,
// a short or malformed frame, ctx ending — fails its runs and counts once.
func (rc *remoteCell) ReadRuns(ctx context.Context, runs []store.Run) {
	for i := range runs {
		runs[i].ReadBuffers(rc.elem)
		runs[i].Err = nil
	}
	for _, req := range rc.requests(runs, false) {
		if err := rc.readRequest(ctx, runs, req); err != nil {
			if ctx.Err() == nil {
				rc.nc.errs.Inc()
			}
			for _, p := range req {
				if runs[p.run].Err == nil {
					runs[p.run].Err = err
				}
			}
		}
	}
	for i := range runs {
		if runs[i].Err != nil {
			runs[i].Data, runs[i].CRCs = nil, nil
		}
	}
}

// readRequest issues one batch read and settles its pieces: a piece the
// node names missing fails its run with store.ErrCellMissing (reconstruct
// from the group, not replan); the rest read their checksums and cells
// off the wire into their run's buffers, in list order.
func (rc *remoteCell) readRequest(ctx context.Context, runs []store.Run, req []piece) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, rc.path(runs, req, false), nil)
	if err != nil {
		return err
	}
	resp, err := rc.nc.hc.Do(hreq) // uncounted: ReadRuns counts each failure
	if err != nil {
		return err
	}
	missing := make([]bool, len(req))
	nMissing := 0
	if v := resp.Header.Get(nodeapi.MissingHeader); v != "" {
		idx, err := nodeapi.ParseMissing(v, len(req))
		if err != nil {
			drainClose(resp)
			return fmt.Errorf("node %s: %w", rc.nc.base, err)
		}
		for _, x := range idx {
			missing[x] = true
		}
		nMissing = len(idx)
	}
	es := rc.elem
	switch {
	case resp.StatusCode == http.StatusNotFound && nMissing == len(req):
		drainClose(resp)
	case resp.StatusCode != http.StatusOK:
		return errBody(rc.nc, resp)
	default:
		// The run list and the missing header fix the frame, and the body
		// must end with it: a short or long answer fails the request — the
		// store slices each run's buffer count ways, so this is where a
		// node's answer is checked.
		crcs := make([][]uint32, 0, len(req)-nMissing)
		want := 0
		for j, p := range req {
			if !missing[j] {
				crcs = append(crcs, runs[p.run].CRCs[p.from:p.from+p.n])
				want += p.n
			}
		}
		head := make([]byte, nodeapi.HeadLen(want))
		_, err := io.ReadFull(resp.Body, head)
		if err == nil {
			err = nodeapi.DecodeHead(head, es, crcs)
		}
		for j, p := range req {
			if err == nil && !missing[j] {
				_, err = io.ReadFull(resp.Body, runs[p.run].Data[p.from*es:(p.from+p.n)*es])
			}
		}
		if err == nil {
			if _, end := io.ReadFull(resp.Body, head[:1]); end != io.EOF {
				err = fmt.Errorf("reply is not a %d-cell frame", want)
			}
		}
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("node %s: batch of %d cells: %w", rc.nc.base, want, err)
		}
		rc.nc.readBytes.Add(int64(want * es))
	}
	for j, p := range req {
		if r := &runs[p.run]; missing[j] && r.Err == nil {
			r.Err = fmt.Errorf("%w: node %s group %d disk %d slot %d",
				store.ErrCellMissing, rc.nc.base, rc.group, r.Disk, r.Slot+p.from)
		}
	}
	return nil
}

// WriteRuns writes the batch, one request per cut (requests), each frame
// sent from where the cells lie; zero runs travel in the URL alone. With
// sync every request carries the barrier, so the node fsyncs every extent it
// names before answering.
func (rc *remoteCell) WriteRuns(ctx context.Context, runs []store.Run, sync bool) error {
	es := rc.elem
	for _, req := range rc.requests(runs, true) {
		crcs := make([][]uint32, len(req))
		body := make(net.Buffers, 1, len(req)+1)
		size := 0
		for j, p := range req {
			r := runs[p.run]
			if p.zero {
				continue
			}
			crcs[j] = r.CRCs[p.from : p.from+p.n]
			if p.n > 0 {
				body = append(body, r.Data[p.from*es:(p.from+p.n)*es])
				size += p.n * es
			}
		}
		var rd io.Reader
		payload := size
		if size > 0 {
			body[0] = nodeapi.FrameHead(es, crcs)
			size += len(body[0])
			rd = &body
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPut, rc.path(runs, req, sync), rd)
		if err != nil {
			return err
		}
		hreq.ContentLength = int64(size)
		hreq.Header.Set("Content-Type", "application/octet-stream")
		resp, err := rc.nc.do(hreq)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusNoContent {
			rc.nc.errs.Inc()
			return errBody(rc.nc, resp)
		}
		drainClose(resp)
		rc.nc.writeBytes.Add(int64(payload))
	}
	return nil
}

func (rc *remoteCell) Truncate(slots int) error {
	path := fmt.Sprintf("%s?slots=%d", nodeapi.TruncatePath(rc.group, rc.disk), slots)
	resp, err := rc.nc.call(http.MethodPost, path, nil, http.StatusNoContent)
	if err == nil {
		drainClose(resp)
	}
	return err
}

// meta fetches the extent's geometry; errors degrade to the zero value so
// status endpoints stay serviceable while a node is down.
func (rc *remoteCell) meta() nodeapi.DiskMeta {
	var m nodeapi.DiskMeta
	if resp, err := rc.nc.call(http.MethodGet, nodeapi.MetaPath(rc.group, rc.disk), nil, http.StatusOK); err == nil {
		json.NewDecoder(resp.Body).Decode(&m)
		drainClose(resp)
	}
	return m
}

func (rc *remoteCell) Slots() int    { return rc.meta().Slots }
func (rc *remoteCell) Elements() int { return rc.meta().Elements }

// Close is a no-op: the transport belongs to the nodeClient, whose idle
// connections Gateway.Close closes once for all extents.
func (rc *remoteCell) Close() error { return nil }
