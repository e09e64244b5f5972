package httpd_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/httpd"
)

// putTestObject stores a payload and returns it.
func putTestObject(t *testing.T, url, name string, size int) []byte {
	t.Helper()
	payload := make([]byte, size)
	rand.New(rand.NewSource(int64(size))).Read(payload)
	resp, _ := doReq(t, http.MethodPut, url+"/objects/"+name, payload)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT status %d", resp.StatusCode)
	}
	return payload
}

// injectors counts the group stores with a fault injector installed.
func injectors(s *surface) int {
	n := 0
	for _, st := range s.stores {
		if st.FaultInjector() != nil {
			n++
		}
	}
	return n
}

// TestFaultsPutGetRoundTrip: an installed plan reads back identically and
// drives every group's store, and DELETE restores the zero plan.
func TestFaultsPutGetRoundTrip(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		plan := faultinject.Plan{
			Seed: 77,
			Policies: []faultinject.Policy{
				{Device: 1, Latency: 50 * time.Microsecond, ReadErrProb: 0.2},
				{Device: 4, StuckProb: 0.1, FailAfterOps: 500},
			},
		}
		blob, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		resp, _ := doReq(t, http.MethodPut, s.url+"/faults", blob)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT /faults status %d", resp.StatusCode)
		}
		if got := injectors(s); got != len(s.stores) {
			t.Fatalf("PUT /faults installed an injector on %d of %d group stores", got, len(s.stores))
		}

		resp, body := doReq(t, http.MethodGet, s.url+"/faults", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /faults status %d", resp.StatusCode)
		}
		var got faultinject.Plan
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		round, _ := json.Marshal(got)
		if !bytes.Equal(round, blob) {
			t.Fatalf("round-trip changed the plan:\n%s\n%s", round, blob)
		}

		if resp, _ := doReq(t, http.MethodDelete, s.url+"/faults", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE /faults status %d", resp.StatusCode)
		}
		if injectors(s) != 0 {
			t.Fatal("DELETE /faults left an injector installed")
		}
		_, body = doReq(t, http.MethodGet, s.url+"/faults", nil)
		got = faultinject.Plan{}
		if err := json.Unmarshal(body, &got); err != nil || got.Seed != 0 || len(got.Policies) != 0 {
			t.Fatalf("GET after DELETE = %s, want the zero plan", body)
		}
	})
}

// TestFaultsRejectsInvalidPlan: malformed plans are 400s and install nothing.
func TestFaultsRejectsInvalidPlan(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		for name, blob := range map[string]string{
			"not json": `{"seed":`,
			"bad prob": `{"seed":1,"policies":[{"device":0,"read_err_prob":2}]}`,
		} {
			resp, _ := doReq(t, http.MethodPut, s.url+"/faults", []byte(blob))
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
			}
		}
		if injectors(s) != 0 {
			t.Fatal("invalid plan installed an injector")
		}
	})
}

// TestGetReturns503WithRetryAfter: a plan pushing more devices into
// persistent errors than the code tolerates exhausts the read's retries —
// the GET must come back 503 with Retry-After, and clearing the plan must
// make the same GET succeed again (the failure was transient).
func TestGetReturns503WithRetryAfter(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		for _, st := range s.stores {
			st.SetRetryPolicy(200*time.Microsecond, 1)
		}
		payload := putTestObject(t, s.url, "blob", 4096)

		// Both schemes tolerate 3 erasures; error out 5 devices persistently.
		plan := faultinject.Plan{Seed: 9}
		for d := 0; d < 5; d++ {
			plan.Policies = append(plan.Policies, faultinject.Policy{Device: d, ReadErrProb: 1})
		}
		blob, _ := json.Marshal(plan)
		if resp, _ := doReq(t, http.MethodPut, s.url+"/faults", blob); resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT /faults status %d", resp.StatusCode)
		}

		resp, _ := doReq(t, http.MethodGet, s.url+"/objects/blob", nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET under total outage: status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 on exhausted retries is missing Retry-After")
		}

		if resp, _ := doReq(t, http.MethodDelete, s.url+"/faults", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE /faults status %d", resp.StatusCode)
		}
		resp, body := doReq(t, http.MethodGet, s.url+"/objects/blob", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET after clearing the plan: status %d", resp.StatusCode)
		}
		if !bytes.Equal(body, payload) {
			t.Fatal("GET after clearing the plan returned wrong bytes")
		}
	})
}

// deviceReads sums the per-device read counters /admin/status reports —
// frozen counters across a GET prove the decoded cache served it.
func deviceReads(t *testing.T, url string) int {
	total := 0
	for _, r := range getStatus(t, url).DeviceReads {
		total += r
	}
	return total
}

// TestFaultPlanChangeInvalidatesCache: installing (or clearing) a plan must
// bump the store epoch so cached decoded reads are not served under the new
// fault regime.
func TestFaultPlanChangeInvalidatesCache(t *testing.T) {
	forEachSurface(t, httpd.Config{}, func(t *testing.T, s *surface) {
		payload := putTestObject(t, s.url, "hot", 8192)

		read := func() {
			t.Helper()
			resp, body := doReq(t, http.MethodGet, s.url+"/objects/hot", nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
				t.Fatalf("GET status %d", resp.StatusCode)
			}
		}
		read() // fill the cache
		base := deviceReads(t, s.url)
		read()
		if got := deviceReads(t, s.url); got != base {
			t.Fatalf("cached GET still read %d cells from devices", got-base)
		}

		// A benign plan (pure latency, no errors) must still invalidate: the
		// next GET re-decodes under the plan rather than serving stale state.
		plan := faultinject.Plan{Seed: 3, Policies: []faultinject.Policy{{Device: 0, Latency: 10 * time.Microsecond}}}
		blob, _ := json.Marshal(plan)
		if resp, _ := doReq(t, http.MethodPut, s.url+"/faults", blob); resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT /faults status %d", resp.StatusCode)
		}
		read()
		if got := deviceReads(t, s.url); got == base {
			t.Fatal("GET after plan install served the stale cache")
		}

		// Clearing the plan invalidates again, then the cache re-forms.
		base = deviceReads(t, s.url)
		if resp, _ := doReq(t, http.MethodDelete, s.url+"/faults", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE /faults status %d", resp.StatusCode)
		}
		read()
		if got := deviceReads(t, s.url); got == base {
			t.Fatal("GET after plan clear served the stale cache")
		}
		base = deviceReads(t, s.url)
		read()
		if got := deviceReads(t, s.url); got != base {
			t.Fatal("cache did not re-form after the plan settled")
		}
	})
}
