package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/store"
)

// nodeClient is the gateway's connection to one data node: a pooled HTTP
// client plus the live load signals (in-flight requests, latency EWMA) the
// degraded planner and the health prober consume. It replaces the role the
// per-device submission queues play in a local store — the queueing now
// happens in the transport's connection pool, and the signals are observed
// per node because that is where network contention lives.
type nodeClient struct {
	base string // http://host:port, no trailing slash
	hc   *http.Client

	// inflight counts requests currently on the wire; ewmaNanos is an
	// exponentially weighted moving average (α = 1/8) of request latency.
	inflight  atomic.Int64
	ewmaNanos atomic.Int64
	// seen flips once the node has answered any probe — readiness gating.
	seen atomic.Bool

	readBytes  *obs.Counter // cell payload bytes fetched from this node
	writeBytes *obs.Counter // cell payload bytes shipped to this node
	errs       *obs.Counter
	upGauge    *obs.Gauge
}

// ewmaAlphaShift: newEWMA = old + (sample-old)/8.
const ewmaAlphaShift = 3

func newNodeClient(id int, base string, timeout time.Duration, reg *obs.Registry) *nodeClient {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	tr := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     60 * time.Second,
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
	reg.GaugeFunc("ecfrm_gateway_node_inflight",
		"Requests currently on the wire per node.",
		func() float64 { return float64(nc.inflight.Load()) }, l)
	reg.GaugeFunc("ecfrm_gateway_node_latency_ewma_seconds",
		"EWMA of node request latency.",
		func() float64 { return time.Duration(nc.ewmaNanos.Load()).Seconds() }, l)
	return nc
}

// observe folds one request's latency into the EWMA.
func (nc *nodeClient) observe(d time.Duration) {
	sample := d.Nanoseconds()
	for {
		old := nc.ewmaNanos.Load()
		next := old + (sample-old)>>ewmaAlphaShift
		if old == 0 {
			next = sample
		}
		if nc.ewmaNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// do runs one request with the load accounting every call shares.
func (nc *nodeClient) do(req *http.Request) (*http.Response, error) {
	nc.inflight.Add(1)
	t0 := time.Now()
	resp, err := nc.hc.Do(req)
	nc.inflight.Add(-1)
	nc.observe(time.Since(t0))
	if err != nil {
		nc.errs.Inc()
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
	nc.errs.Inc()
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

// remoteCell is one (group, disk) extent on one node, as a store.CellBackend.
// The whole single-process store machinery — fan-out runs, hedged reads,
// degraded replanning, the two-phase commit barrier — drives the cluster
// through this type.
type remoteCell struct {
	nc    *nodeClient
	group int
	disk  int
	elem  int
}

func (rc *remoteCell) url(path string) string { return rc.nc.base + path }

func (rc *remoteCell) ReadRun(slot, count int) ([]byte, []uint32, error) {
	u := fmt.Sprintf("%s?slot=%d&count=%d", rc.url(nodeapi.CellsPath(rc.group, rc.disk)), slot, count)
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := rc.nc.do(req)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode == http.StatusNotFound && resp.Header.Get(nodeapi.MissingHeader) != "" {
		drainClose(resp)
		return nil, nil, fmt.Errorf("%w: node %s group %d disk %d slot %d",
			store.ErrCellMissing, rc.nc.base, rc.group, rc.disk, slot)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, errBody(rc.nc, resp)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		rc.nc.errs.Inc()
		return nil, nil, err
	}
	data, crcs, err := nodeapi.DecodeRun(body, rc.elem)
	if err != nil {
		rc.nc.errs.Inc()
		return nil, nil, err
	}
	rc.nc.readBytes.Add(int64(len(data)))
	return data, crcs, nil
}

func (rc *remoteCell) WriteRun(slot int, data []byte, crcs []uint32) error {
	u := fmt.Sprintf("%s?slot=%d", rc.url(nodeapi.CellsPath(rc.group, rc.disk)), slot)
	frame := nodeapi.EncodeRun(rc.elem, data, crcs)
	req, err := http.NewRequest(http.MethodPut, u, bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := rc.nc.do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return errBody(rc.nc, resp)
	}
	drainClose(resp)
	rc.nc.writeBytes.Add(int64(len(data)))
	return nil
}

func (rc *remoteCell) post(path string) error {
	req, err := http.NewRequest(http.MethodPost, rc.url(path), nil)
	if err != nil {
		return err
	}
	resp, err := rc.nc.do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return errBody(rc.nc, resp)
	}
	drainClose(resp)
	return nil
}

func (rc *remoteCell) Sync() error {
	return rc.post(nodeapi.SyncPath(rc.group, rc.disk))
}

func (rc *remoteCell) Truncate(slots int) error {
	return rc.post(fmt.Sprintf("%s?slots=%d", nodeapi.TruncatePath(rc.group, rc.disk), slots))
}

// meta fetches the extent's geometry; errors degrade to the zero value so
// status endpoints stay serviceable while a node is down.
func (rc *remoteCell) meta() nodeapi.DiskMeta {
	var m nodeapi.DiskMeta
	req, err := http.NewRequest(http.MethodGet, rc.url(nodeapi.MetaPath(rc.group, rc.disk)), nil)
	if err != nil {
		return m
	}
	resp, err := rc.nc.do(req)
	if err != nil {
		return m
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		json.NewDecoder(resp.Body).Decode(&m)
	}
	return m
}

func (rc *remoteCell) Slots() int    { return rc.meta().Slots }
func (rc *remoteCell) Elements() int { return rc.meta().Elements }

// Close is a no-op: the transport belongs to the nodeClient, which the
// gateway closes once for all extents.
func (rc *remoteCell) Close() error { return nil }
