package faultinject

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/store"
)

// FuzzFaultPlan feeds arbitrary bytes through ParsePlan. Invalid plans must
// be rejected loudly; valid plans must drive a fixed read schedule plus the
// invariant checker to the exact same verdict on two independent replays —
// the determinism contract holds for every reachable plan, not just the
// hand-written ones.
func FuzzFaultPlan(f *testing.F) {
	f.Add([]byte(`{"seed":7,"policies":[{"device":0,"read_err_prob":0.4,"latency":1000}]}`))
	f.Add([]byte(`{"seed":-3,"policies":[{"device":2,"stuck_prob":0.5,"corrupt_prob":0.5},{"device":5,"fail_after_ops":9}]}`))
	f.Add([]byte(`{"seed":0}`))
	f.Add([]byte(`{"seed":1,"policies":[{"device":1,"jitter":500,"write_err_prob":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ParsePlan(data)
		if err != nil {
			return
		}
		// Clamp latencies so a fuzz-found plan cannot stall the harness; the
		// clamp is a pure function of the plan, so both replays see the same
		// schedule.
		for i := range plan.Policies {
			if plan.Policies[i].Latency > time.Millisecond {
				plan.Policies[i].Latency = time.Millisecond
			}
			if plan.Policies[i].Jitter > time.Millisecond {
				plan.Policies[i].Jitter = time.Millisecond
			}
		}
		first, second := replayVerdict(t, plan), replayVerdict(t, plan)
		if first != second {
			t.Fatalf("plan %+v replayed differently:\n--- first ---\n%s--- second ---\n%s", plan, first, second)
		}
		if bytes.Contains([]byte(first), []byte("WRONG BYTES")) {
			t.Fatalf("plan %+v produced silent wrong bytes:\n%s", plan, first)
		}
	})
}

// replayVerdict runs a fixed 20-read schedule against a fresh store under
// the plan and flattens every observable outcome — per-read error/ok plus
// the invariant-checker verdict — into one string for comparison.
func replayVerdict(t *testing.T, plan Plan) string {
	t.Helper()
	scheme := core.MustScheme(mustRS(4, 2), layout.FormECFRM)
	st := store.MustNew(scheme, 64)
	payload := make([]byte, 2*scheme.DataPerStripe()*64)
	rand.New(rand.NewSource(99)).Read(payload)
	if err := st.Append(payload); err != nil {
		t.Fatal(err)
	}
	install(st, plan)

	var log bytes.Buffer
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20; i++ {
		off := int64(rng.Intn(len(payload) - 128))
		res, err := st.ReadAt(off, 128)
		switch {
		case err != nil:
			fmt.Fprintf(&log, "%d:err=%v\n", i, err)
		case !bytes.Equal(res.Data, payload[off:off+128]):
			fmt.Fprintf(&log, "%d:WRONG BYTES\n", i)
		default:
			fmt.Fprintf(&log, "%d:ok healed=%d\n", i, res.Healed)
		}
	}
	fmt.Fprintf(&log, "check=%v\n", CheckStore(st, payload))
	return log.String()
}
