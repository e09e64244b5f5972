package gateway

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datanode"
	"repro/internal/layout"
	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/rs"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// startNode serves an in-memory data node, through wrap when it is non-nil,
// and returns a client for it.
func startNode(t *testing.T, elem int, wrap func(http.Handler) http.Handler) *nodeClient {
	t.Helper()
	node, err := datanode.New(datanode.Config{ElemSize: elem})
	if err != nil {
		t.Fatal(err)
	}
	var h http.Handler = node
	if wrap != nil {
		h = wrap(node)
	}
	srv := httptest.NewServer(h)
	nc := newNodeClient(0, srv.URL, 5*time.Second, obs.NewRegistry())
	t.Cleanup(func() {
		nc.hc.CloseIdleConnections()
		srv.Close()
		node.Close()
	})
	return nc
}

// TestRemoteCellContract runs the CellBackend contract the local disks keep
// against the data-node client, one fresh extent per case.
func TestRemoteCellContract(t *testing.T) {
	const elem = 64
	nc := startNode(t, elem, nil)
	group := 0
	storetest.TestCellBackend(t, elem, func(t *testing.T) store.CellBackend {
		group++
		return &remoteCell{nc: nc, group: group, disk: 0, elem: elem}
	})
}

// TestRemoteCellShortFrame: a node that answers a run of count cells with a
// well-formed frame of fewer is a faulty device, not a short slice — the
// client errors, and a store over it replans the read around that disk.
func TestRemoteCellShortFrame(t *testing.T) {
	const elem, liar = 64, 0
	nc := startNode(t, elem, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && r.URL.Path == nodeapi.CellsPath(0, liar) {
				q := r.URL.Query()
				q.Set("count", "1")
				r.URL.RawQuery = q.Encode()
			}
			next.ServeHTTP(w, r)
		})
	})
	scheme := core.MustScheme(rs.Must(4, 2), layout.FormStandard)
	st, _, err := store.NewWithCellBackends(scheme, elem, store.CellStoreConfig{Sync: true},
		func(d int) (store.CellBackend, error) {
			return &remoteCell{nc: nc, group: 0, disk: d, elem: elem}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	payload := make([]byte, 3*scheme.DataPerStripe()*elem)
	rand.New(rand.NewSource(29)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}

	rc := &remoteCell{nc: nc, group: 0, disk: liar, elem: elem}
	if data, crcs, err := rc.ReadRun(0, 2); err == nil || data != nil || crcs != nil {
		t.Fatalf("1-cell answer to a 2-cell run: %d bytes, %d checksums, err %v; want an error and nothing else",
			len(data), len(crcs), err)
	}
	// Disk 0 holds data element 0 of every stripe: three consecutive
	// stripes are one 3-cell run on it, which the node answers short.
	res, err := st.ReadAt(0, len(payload))
	if err != nil {
		t.Fatalf("read over a node answering short: %v", err)
	}
	if !bytes.Equal(res.Data, payload) {
		t.Fatal("read over a node answering short returned wrong bytes")
	}
	for _, a := range res.Plan.Reads {
		if a.Disk == liar {
			t.Fatalf("the served plan still reads disk %d: %+v", liar, a)
		}
	}
}
