package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
)

// The paper's read protocol: requests of 1–20 elements, uniformly chosen.
const (
	elemBytes = 64 << 10 // ecfrmd's default -elem
	maxElems  = 20
	poolBytes = 4 << 20 // payloads are windows into one seeded random pool
)

// spec is one workload: which processes serve it and how much of what a
// round asks of them. Sizes are in "sets": a set is one object of each size
// from 1 to 20 elements, in seeded order. Building every phase out of whole
// sets keeps the bytes moved per round, and so the exact-count metrics, the
// same for every seed; the seed still decides payloads, names and order.
type spec struct {
	name string

	gateway   bool  // 3 data nodes behind a gateway, and the PUT and GET loops run at once
	failDisks []int // disks failed (POST /admin/fail) before the GET phase

	preloadSets int  // sets PUT during set-up, unmeasured
	putSets     int  // measured PUT sets, each putBlocksPerSet blocks
	getBlocks   int  // measured GET blocks (gateway: as many as fit beside the PUT loop) …
	getPasses   int  // … of this many shuffled passes over the GET objects
	putPrimary  bool // the PUT phase is the main one (cpu_ms_per_op) and the GET blocks read back every object, not just the preload
}

// A measured PUT block is a fifth of a set: the sizes s, 21−s, 11−s and 10+s
// elements for one s of 1..5, which is 42 elements whichever s. Blocks this
// short keep the median block clear of the stalls one PUT in twenty runs
// into, and equal bytes keep their throughputs comparable.
const putBlocksPerSet = 5

var specs = []spec{
	{
		// Healthy nocache GETs: plan, fan-out executor, file devices, CRC,
		// assemble, HTTP. The paper's normal read; WAL and encode are idle.
		name:        "single-get",
		preloadSets: 2, putSets: 3, getBlocks: 8, getPasses: 8,
	},
	{
		// The same with two disks failed (with one, 90 % of elements stay on
		// the healthy path): degraded planning, reconstruction, extra reads.
		name:        "single-get-degraded",
		failDisks:   []int{3, 8},
		preloadSets: 2, putSets: 3, getBlocks: 8, getPasses: 8,
	},
	{
		// One client's PUTs: body read, WAL wait and spill, encode, device
		// writes, fsync barrier. Then every object is read back, four times.
		name:        "single-put",
		preloadSets: 2, putSets: 8, getBlocks: 4, getPasses: 1, putPrimary: true,
	},
	{
		// RS(6,3) over 3 node processes behind a gateway, a GET loop beside a
		// PUT loop: wire framing, node round trips, contention on the nodes.
		name:        "gateway-mixed",
		gateway:     true,
		preloadSets: 2, putSets: 4, getPasses: 2,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// quick shrinks a spec to roughly a tenth of its operations, enough to check
// shape and correctness.
func (s spec) quick() spec {
	s.preloadSets = 1
	s.putSets = 1
	if s.getBlocks > 2 {
		s.getBlocks = 2
	}
	if s.getPasses > 2 {
		s.getPasses = 2
	}
	return s
}

// object is one blob: a window of the payload pool and what it must read
// back as.
type object struct {
	name string
	off  int
	size int
	crc  uint32
}

// roundPlan is everything one round will ask for, fixed by (spec, seed,
// round) before any server starts.
type roundPlan struct {
	objs      []object
	preload   []int   // object indices PUT during set-up
	putBlocks [][]int // object indices PUT in each measured block
	getBlocks [][]int // object indices fetched in each measured block
}

// newPool is the seeded byte pool payloads are cut from.
func newPool(seed int64) []byte {
	pool := make([]byte, poolBytes)
	rand.New(rand.NewSource(seed)).Read(pool)
	return pool
}

// maxConcurrentGetBlocks caps the GET loop of the gateway workload; the PUT
// loop ends it long before.
const maxConcurrentGetBlocks = 256

func planRound(s spec, pool []byte, seed int64, round int) roundPlan {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", s.name, seed, round)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))

	var p roundPlan
	// addSet adds one object of each size, as putBlocksPerSet blocks of equal
	// bytes. The sizes come in the same order in every set: what the server
	// holds after the n-th PUT (its WAL log grows by reallocation, so its peak
	// memory and its stalls depend on the order sizes arrive in, by ±8 %) is
	// then the same in every round of every seed, and rounds are replicates.
	addSet := func() [][]int {
		var blocks [][]int
		for q := 0; q < putBlocksPerSet; q++ {
			var idx []int
			for _, elems := range []int{q + 1, maxElems - q, maxElems/2 - q, maxElems/2 + 1 + q} {
				size := elems * elemBytes
				off := rng.Intn(len(pool) - size + 1)
				p.objs = append(p.objs, object{
					name: fmt.Sprintf("s%d-r%d-o%d", seed, round, len(p.objs)),
					off:  off, size: size,
					crc: crc32.ChecksumIEEE(pool[off : off+size]),
				})
				idx = append(idx, len(p.objs)-1)
			}
			blocks = append(blocks, idx)
		}
		return blocks
	}
	for i := 0; i < s.preloadSets; i++ {
		for _, b := range addSet() {
			p.preload = append(p.preload, b...)
		}
	}
	for i := 0; i < s.putSets; i++ {
		p.putBlocks = append(p.putBlocks, addSet()...)
	}
	targets := len(p.preload)
	if s.putPrimary {
		targets = len(p.objs)
	}
	blocks := s.getBlocks
	if s.gateway {
		blocks = maxConcurrentGetBlocks
	}
	for i := 0; i < blocks; i++ {
		var b []int
		for pass := 0; pass < s.getPasses; pass++ {
			b = append(b, rng.Perm(targets)...)
		}
		p.getBlocks = append(p.getBlocks, b)
	}
	return p
}

// hash folds the whole plan into one number: equal plans, equal hashes.
func (p roundPlan) hash() uint64 {
	h := fnv.New64a()
	word := func(v int) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, o := range p.objs {
		h.Write([]byte(o.name))
		word(o.off)
		word(o.size)
		word(int(o.crc))
	}
	for _, list := range append(append([][]int{p.preload}, p.putBlocks...), p.getBlocks...) {
		word(len(list))
		for _, i := range list {
			word(i)
		}
	}
	return h.Sum64()
}

func bytesOf(objs []object, idx []int) int64 {
	var n int64
	for _, i := range idx {
		n += int64(objs[i].size)
	}
	return n
}
