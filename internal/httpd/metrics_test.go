package httpd_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/layout"
	"repro/internal/rs"
	"repro/internal/store"
)

// scrape fetches and returns the /metrics text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, body := doReq(t, http.MethodGet, base+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	return string(body)
}

// metricValue returns the value of the exactly-named series (name including
// its label block) in a scrape, or -1 if absent.
func metricValue(body, series string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// histSnapshot is a scraped histogram series: cumulative bucket counts in
// bound order, plus sum and count.
type histSnapshot struct {
	les     []string
	buckets []float64
	sum     float64
	count   float64
}

// parseHist extracts one histogram series (by base name and label block,
// e.g. `{mode="normal"`) from a scrape. Bucket lines carry the le label
// appended to the series labels, so they are matched by prefix.
func parseHist(t *testing.T, body, name, labels string) histSnapshot {
	t.Helper()
	var h histSnapshot
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+"_bucket"+labels+",le=\""); ok {
			i := strings.Index(rest, `"} `)
			if i < 0 {
				t.Fatalf("malformed bucket line %q", line)
			}
			v, err := strconv.ParseFloat(rest[i+3:], 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			h.les = append(h.les, rest[:i])
			h.buckets = append(h.buckets, v)
		}
	}
	h.sum = metricValue(body, name+"_sum"+labels+"}")
	h.count = metricValue(body, name+"_count"+labels+"}")
	if len(h.buckets) == 0 || h.count < 0 {
		t.Fatalf("histogram %s%s absent from scrape", name, labels)
	}
	return h
}

// TestMetricsEndpointCountersMove drives the documented lifecycle — PUT, GET
// (cold), GET (cached), fail a disk, GET (degraded) — and asserts the scrape
// moves at every step.
func TestMetricsEndpointCountersMove(t *testing.T) {
	ts, _ := newTestServer(t)
	payload := make([]byte, 20_000)
	rand.New(rand.NewSource(3)).Read(payload)
	doReq(t, http.MethodPut, ts.URL+"/objects/x", payload)

	doReq(t, http.MethodGet, ts.URL+"/objects/x", nil) // miss, fills cache
	doReq(t, http.MethodGet, ts.URL+"/objects/x", nil) // hit
	body := scrape(t, ts.URL)
	if v := metricValue(body, "ecfrm_httpd_cache_misses_total"); v < 1 {
		t.Fatalf("cache misses %v, want >= 1", v)
	}
	if v := metricValue(body, "ecfrm_httpd_cache_hits_total"); v < 1 {
		t.Fatalf("cache hits %v, want >= 1", v)
	}
	if v := metricValue(body, `ecfrm_store_reads_total{mode="normal"}`); v < 1 {
		t.Fatalf("normal store reads %v, want >= 1", v)
	}
	if v := metricValue(body, `ecfrm_disk_element_reads_total{disk="0"}`); v < 0 {
		t.Fatal("per-disk read counter missing from scrape")
	}
	var diskReads float64
	for d := 0; d < 10; d++ {
		diskReads += metricValue(body, fmt.Sprintf(`ecfrm_disk_element_reads_total{disk="%d"}`, d))
	}
	if diskReads <= 0 {
		t.Fatalf("summed per-disk reads %v, want > 0", diskReads)
	}
	lat := parseHist(t, body, "ecfrm_httpd_request_seconds", `{op="get"`)
	if lat.count < 2 {
		t.Fatalf("GET latency observations %v, want >= 2", lat.count)
	}

	epochBefore := metricValue(body, "ecfrm_store_epoch_invalidations_total")
	doReq(t, http.MethodPost, ts.URL+"/admin/fail?disk=1", nil)
	doReq(t, http.MethodGet, ts.URL+"/objects/x", nil) // degraded re-decode
	body = scrape(t, ts.URL)
	if v := metricValue(body, "ecfrm_store_epoch_invalidations_total"); v <= epochBefore {
		t.Fatalf("epoch invalidations %v did not move past %v", v, epochBefore)
	}
	if v := metricValue(body, `ecfrm_store_reads_total{mode="degraded"}`); v < 1 {
		t.Fatalf("degraded store reads %v, want >= 1", v)
	}
	deg := parseHist(t, body, "ecfrm_store_read_max_disk_load", `{mode="degraded"`)
	if deg.count < 1 {
		t.Fatal("degraded max-load histogram empty after degraded GET")
	}
}

// familySum adds up every series of one metric family in a scrape, whatever
// its labels (a gateway's group stores label theirs with group="G").
func familySum(body, family string) float64 {
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func TestHeadObject(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		payload := make([]byte, 12_345)
		rand.New(rand.NewSource(4)).Read(payload)
		doReq(t, http.MethodPut, s.url+"/objects/h", payload)

		resp, body := doReq(t, http.MethodHead, s.url+"/objects/h", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HEAD status %d", resp.StatusCode)
		}
		if len(body) != 0 {
			t.Fatalf("HEAD returned %d body bytes", len(body))
		}
		if got := resp.Header.Get("Content-Length"); got != "12345" {
			t.Fatalf("Content-Length %q, want 12345", got)
		}
		if got := resp.Header.Get("X-Read-Cost"); got != "1.000" {
			t.Fatalf("X-Read-Cost %q, want 1.000", got)
		}
		if resp.Header.Get("X-Max-Disk-Load") == "" {
			t.Fatal("missing X-Max-Disk-Load")
		}
		if got := resp.Header.Get("X-Placement-Group") != ""; got != (len(s.stores) > 1) {
			t.Fatalf("X-Placement-Group present=%v with %d groups", got, len(s.stores))
		}
		// Metadata only: planning must not have read a single element. Nothing
		// but the PUT and the HEAD has touched the store, so every per-disk read
		// counter must still be zero.
		if sum := familySum(scrape(t, s.url), "ecfrm_disk_element_reads_total"); sum != 0 {
			t.Fatalf("HEAD read %v elements from disks, want 0", sum)
		}

		if resp, _ := doReq(t, http.MethodHead, s.url+"/objects/nope", nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing HEAD status %d", resp.StatusCode)
		}

		// Degraded planning shows up in the headers without any decode.
		doReq(t, http.MethodPost, s.url+"/admin/fail?disk=0&group="+groupOf(t, s.url, "h"), nil)
		resp, _ = doReq(t, http.MethodHead, s.url+"/objects/h", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded HEAD status %d", resp.StatusCode)
		}
		cost, err := strconv.ParseFloat(resp.Header.Get("X-Read-Cost"), 64)
		if err != nil || cost < 1 {
			t.Fatalf("degraded X-Read-Cost %q", resp.Header.Get("X-Read-Cost"))
		}
	})
}

// TestMaxLoadDistributionECFRMBeatsStandard is the acceptance check for the
// paper's claim, observed live through /metrics: identical uniform GET
// traffic against an ecfrm-form store and a standard-form store (same
// RS(6,2) code, same objects), then the scraped max-disk-load distributions
// compared. The ecfrm distribution must stochastically dominate (every
// cumulative bucket at least as full) and be strictly better in total.
func TestMaxLoadDistributionECFRMBeatsStandard(t *testing.T) {
	const elemSize = 64
	run := func(form layout.Form) histSnapshot {
		scheme := core.MustScheme(rs.Must(6, 2), form)
		srv := httpd.NewServerWith(store.MustNew(scheme, elemSize), httpd.Config{})
		ts := httptest.NewServer(srv)
		defer ts.Close()

		// Uniform traffic: objects spanning 1..12 elements, two of each
		// size, each fetched exactly once. Element-sized payload units keep
		// the two stores' request boundaries identical.
		rng := rand.New(rand.NewSource(7))
		for size := 1; size <= 12; size++ {
			for copyN := 0; copyN < 2; copyN++ {
				payload := make([]byte, size*elemSize)
				rng.Read(payload)
				name := fmt.Sprintf("o-%d-%d", size, copyN)
				resp, body := doReq(t, http.MethodPut, ts.URL+"/objects/"+name, payload)
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("%s: PUT %s: %d %s", form, name, resp.StatusCode, body)
				}
			}
		}
		for size := 1; size <= 12; size++ {
			for copyN := 0; copyN < 2; copyN++ {
				name := fmt.Sprintf("o-%d-%d", size, copyN)
				resp, _ := doReq(t, http.MethodGet, ts.URL+"/objects/"+name, nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: GET %s: %d", form, name, resp.StatusCode)
				}
			}
		}
		return parseHist(t, scrape(t, ts.URL), "ecfrm_store_read_max_disk_load", `{mode="normal"`)
	}

	ec := run(layout.FormECFRM)
	std := run(layout.FormStandard)

	if ec.count != std.count {
		t.Fatalf("traffic mismatch: ecfrm observed %v reads, standard %v", ec.count, std.count)
	}
	if ec.count != 24 {
		t.Fatalf("observed %v reads, want 24", ec.count)
	}
	// Stochastic dominance: at every bucket bound, at least as many ecfrm
	// requests stayed at or below the load.
	if len(ec.buckets) != len(std.buckets) {
		t.Fatalf("bucket layouts differ: %v vs %v", ec.les, std.les)
	}
	for i := range ec.buckets {
		if ec.buckets[i] < std.buckets[i] {
			t.Fatalf("ecfrm CDF below standard at le=%s: %v < %v (ecfrm %+v, std %+v)",
				ec.les[i], ec.buckets[i], std.buckets[i], ec, std)
		}
	}
	// And strictly better overall: lower total max-load across the same
	// request sequence (the paper's claim, measured live).
	if ec.sum >= std.sum {
		t.Fatalf("ecfrm total max-load %v not strictly below standard %v", ec.sum, std.sum)
	}
}
