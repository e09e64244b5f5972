package disksim

import (
	"fmt"
	"sort"
	"time"
)

// Request is one read request offered to the queued simulator: it arrives at
// Arrival and needs loads[d] element accesses on each disk d.
type Request struct {
	ID      int
	Arrival time.Duration
	Loads   []int
}

// Completion reports one simulated request outcome.
type Completion struct {
	ID     int
	Start  time.Duration // arrival time
	Finish time.Duration // when the last disk access completed
}

// Latency returns the request's response time (queueing + service).
func (c Completion) Latency() time.Duration { return c.Finish - c.Start }

// SimulateQueued runs an open-loop simulation of concurrent requests over
// the array: each disk serves its accesses FIFO in request-arrival order,
// one access at a time; a request completes when its last access finishes.
//
// This extends the paper's serial-trial methodology to concurrent load —
// under contention, load imbalance hurts twice: a hot disk both slows its
// own request and queues behind earlier requests. The returned completions
// are ordered by request ID.
func (a *Array) SimulateQueued(requests []Request, elemBytes int) ([]Completion, error) {
	for _, r := range requests {
		if len(r.Loads) != len(a.rngs) {
			return nil, fmt.Errorf("disksim: request %d has %d loads for %d disks", r.ID, len(r.Loads), len(a.rngs))
		}
		if r.Arrival < 0 {
			return nil, fmt.Errorf("disksim: request %d has negative arrival", r.ID)
		}
	}
	// Process in arrival order (stable for ties by ID).
	order := make([]int, len(requests))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		rx, ry := requests[order[x]], requests[order[y]]
		if rx.Arrival != ry.Arrival {
			return rx.Arrival < ry.Arrival
		}
		return rx.ID < ry.ID
	})

	free := make([]time.Duration, len(a.rngs)) // when each disk becomes idle
	out := make([]Completion, 0, len(requests))
	for _, idx := range order {
		r := requests[idx]
		finish := r.Arrival
		for d, l := range r.Loads {
			if l == 0 {
				continue
			}
			start := r.Arrival
			if free[d] > start {
				start = free[d]
			}
			end := start + a.DiskTime(d, l, elemBytes)
			free[d] = end
			if end > finish {
				finish = end
			}
		}
		out = append(out, Completion{ID: r.ID, Start: r.Arrival, Finish: finish})
	}
	sort.Slice(out, func(x, y int) bool { return out[x].ID < out[y].ID })
	return out, nil
}

// QueueStats aggregates a simulation run.
type QueueStats struct {
	Requests      int
	MeanLatency   time.Duration
	P99Latency    time.Duration
	MakespanTotal time.Duration // finish of the last request
	ThroughputMBs float64       // payload MB per second of makespan
}

// Summarize computes aggregate statistics; payloadBytes[i] is request i's
// useful payload (indexed by completion order, i.e. request ID order).
func Summarize(completions []Completion, payloadBytes []int) (QueueStats, error) {
	if len(completions) == 0 {
		return QueueStats{}, nil
	}
	if len(payloadBytes) != len(completions) {
		return QueueStats{}, fmt.Errorf("disksim: %d payloads for %d completions", len(payloadBytes), len(completions))
	}
	var stats QueueStats
	stats.Requests = len(completions)
	lat := make([]time.Duration, len(completions))
	var sum time.Duration
	var totalBytes int
	for i, c := range completions {
		lat[i] = c.Latency()
		sum += lat[i]
		if c.Finish > stats.MakespanTotal {
			stats.MakespanTotal = c.Finish
		}
		totalBytes += payloadBytes[i]
	}
	sort.Slice(lat, func(x, y int) bool { return lat[x] < lat[y] })
	stats.MeanLatency = sum / time.Duration(len(lat))
	stats.P99Latency = lat[(len(lat)*99)/100]
	if stats.MakespanTotal > 0 {
		stats.ThroughputMBs = float64(totalBytes) / 1e6 / stats.MakespanTotal.Seconds()
	}
	return stats, nil
}
