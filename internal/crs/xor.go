// XOR machinery behind the Cauchy Reed-Solomon code: expand the field
// generator into a binary matrix, split each element into w packets, and
// encode/decode by XORing packets. The symbol width w enters only through
// packet counts and bit-row ranges.
package crs

import (
	"fmt"
	"sync"

	"repro/internal/bitmatrix"
	"repro/internal/codes"
	"repro/internal/gf"
)

// invKeyWords sizes the survivor-selection bitmap used as the
// inverse-cache key: enough 64-bit words to cover the widest supported
// stripe (codes.MaxN elements).
const invKeyWords = codes.MaxN / 64

// xorCode is the XOR kernel behind Code.
type xorCode struct {
	w, k, m int
	// bitGen is the (n·w)×(k·w) binary generator; rows of element i are
	// bit-rows [i·w, (i+1)·w).
	bitGen *bitmatrix.Matrix
	// paritySub is bitGen's parity block restricted to the data columns —
	// the matrix every encode applies — precomputed so encodes never
	// re-extract it.
	paritySub *bitmatrix.Matrix
	// sched is the precomputed XOR schedule for EncodeScheduled.
	sched *Schedule
	// pkPool recycles the (k+m)·w packet-pointer tables the encode paths
	// need, so steady-state encodes allocate only the parity shards — or
	// nothing at all on the EncodeInto path.
	pkPool sync.Pool
	// invMu guards invCache, which memoizes the inverted survivor
	// sub-generator per survivor selection: a storage system repairs the
	// same failure pattern for every stripe, and the k·w×k·w GF(2)
	// inversion dwarfs the XOR work for small shards.
	invMu    sync.RWMutex
	invCache map[[invKeyWords]uint64]*bitmatrix.Matrix
}

// newXORCode precomputes the parity sub-matrix, the XOR schedule, and the
// packet-table pool for a binary generator of symbol width w.
func newXORCode(bitGen *bitmatrix.Matrix, w, k, m int) *xorCode {
	c := &xorCode{
		w: w, k: k, m: m,
		bitGen:   bitGen,
		invCache: make(map[[invKeyWords]uint64]*bitmatrix.Matrix),
	}
	c.paritySub = selectCols(bitGen.SelectRows(rowRange(k*w, (k+m)*w)), 0, k*w)
	c.sched = buildSchedule(c.paritySub, w, k, m)
	c.pkPool.New = func() any {
		s := make([][]byte, (k+m)*w)
		return &s
	}
	return c
}

// packets splits a shard into w equal packets (packet p holds bit-plane p's
// bytes: Jerasure's layout is simply w contiguous sub-blocks).
func packets(shard []byte, w int) [][]byte {
	out := make([][]byte, w)
	packetsInto(out, shard, w)
	return out
}

// packetsInto writes the w packet views of shard into dst without
// allocating. dst must have length w.
func packetsInto(dst [][]byte, shard []byte, w int) {
	plen := len(shard) / w
	for p := 0; p < w; p++ {
		dst[p] = shard[p*plen : (p+1)*plen]
	}
}

// checkData validates data shard count, consistency, and the packet-size
// constraint, returning the common shard size.
func (c *xorCode) checkData(data [][]byte) (int, error) {
	if len(data) != c.k {
		return 0, fmt.Errorf("%w: got %d data shards, want %d", codes.ErrShardSize, len(data), c.k)
	}
	size := -1
	for i, d := range data {
		if d == nil {
			return 0, fmt.Errorf("%w: data shard %d is nil", codes.ErrShardSize, i)
		}
		if size == -1 {
			size = len(d)
		}
		if len(d) != size {
			return 0, fmt.Errorf("%w: shard %d has %d bytes, want %d", codes.ErrShardSize, i, len(d), size)
		}
	}
	if size%c.w != 0 {
		return 0, fmt.Errorf("%w: shard size %d not a multiple of %d", codes.ErrShardSize, size, c.w)
	}
	return size, nil
}

// encode computes parity shards using only XOR operations on packets.
func (c *xorCode) encode(data [][]byte) ([][]byte, error) {
	size, err := c.checkData(data)
	if err != nil {
		return nil, err
	}
	parity := make([][]byte, c.m)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	c.encodePacked(parity, data)
	return parity, nil
}

// encodeInto computes parity into caller-provided cells — the
// zero-allocation encode path.
func (c *xorCode) encodeInto(parity, data [][]byte) error {
	size, err := c.checkData(data)
	if err != nil {
		return err
	}
	if len(parity) != c.m {
		return fmt.Errorf("%w: got %d parity cells, want %d", codes.ErrShardSize, len(parity), c.m)
	}
	for i, p := range parity {
		if len(p) != size {
			return fmt.Errorf("%w: parity cell %d has %d bytes, want %d", codes.ErrShardSize, i, len(p), size)
		}
	}
	c.encodePacked(parity, data)
	return nil
}

// encodePacked runs the XOR encode through a pooled packet-pointer table.
// Inputs are pre-validated.
func (c *xorCode) encodePacked(parity, data [][]byte) {
	tp := c.pkPool.Get().(*[][]byte)
	table := *tp
	for i, d := range data {
		packetsInto(table[i*c.w:(i+1)*c.w], d, c.w)
	}
	out := table[c.k*c.w : (c.k+c.m)*c.w]
	for i, p := range parity {
		packetsInto(out[i*c.w:(i+1)*c.w], p, c.w)
	}
	// Parity bit-rows over the data columns are all we need since the left
	// block of the generator is identity.
	c.paritySub.MulVec(out, table[:c.k*c.w])
	for i := range table {
		table[i] = nil // don't pin shard memory inside the pool
	}
	c.pkPool.Put(tp)
}

// reconstructXOR rebuilds every nil shard using the pure-XOR decode path:
// pick k surviving elements, invert their k·w×k·w binary sub-generator,
// recover the data packets, and re-encode the erased elements. It fails
// with codes.ErrUnrecoverable beyond m erasures.
func (c *xorCode) reconstructXOR(shards [][]byte) error {
	n := c.k + c.m
	if len(shards) != n {
		return fmt.Errorf("%w: got %d shards, want %d", codes.ErrShardSize, len(shards), n)
	}
	var avail, erased []int
	size := -1
	for i, s := range shards {
		if s == nil {
			erased = append(erased, i)
			continue
		}
		if size == -1 {
			size = len(s)
		}
		if len(s) != size {
			return fmt.Errorf("%w: shard %d has %d bytes, want %d", codes.ErrShardSize, i, len(s), size)
		}
		avail = append(avail, i)
	}
	if len(erased) == 0 {
		return nil
	}
	if len(avail) < c.k {
		return fmt.Errorf("%w: only %d survivors for k=%d", codes.ErrUnrecoverable, len(avail), c.k)
	}
	if size%c.w != 0 {
		return fmt.Errorf("%w: shard size %d not a multiple of %d", codes.ErrShardSize, size, c.w)
	}
	use := avail[:c.k]
	inv, err := c.survivorInverse(use)
	if err != nil {
		return fmt.Errorf("%w: survivor sub-generator singular", codes.ErrUnrecoverable)
	}
	// Recover all data packets.
	in := make([][]byte, 0, c.k*c.w)
	for _, e := range use {
		in = append(in, packets(shards[e], c.w)...)
	}
	dataShards := make([][]byte, c.k)
	dataPk := make([][]byte, 0, c.k*c.w)
	for i := range dataShards {
		dataShards[i] = make([]byte, size)
		dataPk = append(dataPk, packets(dataShards[i], c.w)...)
	}
	inv.MulVec(dataPk, in)
	// Re-emit the erased elements from the recovered data.
	for _, e := range erased {
		shard := make([]byte, size)
		outPk := packets(shard, c.w)
		rows := rowRange(e*c.w, (e+1)*c.w)
		selectCols(c.bitGen.SelectRows(rows), 0, c.k*c.w).MulVec(outPk, dataPk)
		shards[e] = shard
	}
	return nil
}

// reconstructElements rebuilds the targets (and, as a side effect of the
// XOR decode, any other recoverable nil shard). For an MDS code the targets
// are recoverable exactly when at least k survivors exist, so delegating to
// the full decode loses no generality.
func (c *xorCode) reconstructElements(shards [][]byte, targets []int) error {
	for _, t := range targets {
		if t < 0 || t >= c.k+c.m {
			return fmt.Errorf("%w: target %d out of range", codes.ErrShardSize, t)
		}
	}
	return c.reconstructXOR(shards)
}

// applyDelta folds an update of data element elem into the parity shards
// through the binary generator: each parity element's w×w block for elem is
// applied to the delta's packets and XORed in. Pure XOR, like the encode.
func (c *xorCode) applyDelta(parity [][]byte, elem int, delta []byte) error {
	if len(parity) != c.m {
		return fmt.Errorf("%w: got %d parity shards, want %d", codes.ErrShardSize, len(parity), c.m)
	}
	if elem < 0 || elem >= c.k {
		return fmt.Errorf("%w: data element %d out of [0,%d)", codes.ErrShardSize, elem, c.k)
	}
	if len(delta)%c.w != 0 {
		return fmt.Errorf("%w: delta size %d not a multiple of %d", codes.ErrShardSize, len(delta), c.w)
	}
	for t, p := range parity {
		if len(p) != len(delta) {
			return fmt.Errorf("%w: parity %d has %d bytes, delta %d", codes.ErrShardSize, t, len(p), len(delta))
		}
	}
	deltaPk := packets(delta, c.w)
	buf := make([]byte, len(delta))
	for t := 0; t < c.m; t++ {
		block := selectCols(c.bitGen.SelectRows(rowRange((c.k+t)*c.w, (c.k+t+1)*c.w)), elem*c.w, (elem+1)*c.w)
		block.MulVec(packets(buf, c.w), deltaPk) // MulVec zeroes buf's packets first
		gf.AddSlice(parity[t], buf)
	}
	return nil
}

// survivorInverse returns the inverted k·w×k·w sub-generator for the given
// survivor elements, memoized per selection: repairing a failure pattern
// touches every stripe with the same survivors, so the GF(2) inversion is
// paid once.
func (c *xorCode) survivorInverse(use []int) (*bitmatrix.Matrix, error) {
	var key [invKeyWords]uint64
	for _, e := range use {
		key[e/64] |= 1 << (uint(e) % 64)
	}
	c.invMu.RLock()
	inv, ok := c.invCache[key]
	c.invMu.RUnlock()
	if ok {
		return inv, nil
	}
	bitRows := make([]int, 0, c.k*c.w)
	for _, e := range use {
		bitRows = append(bitRows, rowRange(e*c.w, (e+1)*c.w)...)
	}
	inv, err := c.bitGen.SelectRows(bitRows).Invert()
	if err != nil {
		return nil, err
	}
	c.invMu.Lock()
	c.invCache[key] = inv
	c.invMu.Unlock()
	return inv, nil
}

// xorCount returns the number of packet XORs one stripe encode performs —
// the cost metric CRS constructions optimize (set bits in the parity block
// beyond the first contribution of each output packet).
func (c *xorCode) xorCount() int {
	count := 0
	for i := c.k * c.w; i < (c.k+c.m)*c.w; i++ {
		w := c.bitGen.RowWeight(i)
		if w > 0 {
			count += w - 1
		}
	}
	return count
}

// naiveXOROps returns the operation count of the unscheduled encode (one op
// per set generator bit).
func (c *xorCode) naiveXOROps() int {
	ops := 0
	for r := c.k * c.w; r < (c.k+c.m)*c.w; r++ {
		ops += c.bitGen.RowWeight(r)
	}
	return ops
}

// encodeScheduled computes parity shards by running the XOR schedule. The
// result is bit-identical to encode but performs fewer XOR passes when rows
// overlap.
func (c *xorCode) encodeScheduled(data [][]byte) ([][]byte, error) {
	size, err := c.checkData(data)
	if err != nil {
		return nil, err
	}
	// Unified packet table: data packets then parity packets.
	table := make([][]byte, (c.k+c.m)*c.w)
	for i, d := range data {
		packetsInto(table[i*c.w:(i+1)*c.w], d, c.w)
	}
	parity := make([][]byte, c.m)
	for i := range parity {
		parity[i] = make([]byte, size)
		packetsInto(table[(c.k+i)*c.w:(c.k+i+1)*c.w], parity[i], c.w)
	}
	for _, op := range c.sched.ops {
		dst := table[op.Dst]
		if op.Copy {
			if op.Src == op.Dst {
				clear(dst)
				continue
			}
			copy(dst, table[op.Src])
			continue
		}
		gf.AddSlice(dst, table[op.Src])
	}
	return parity, nil
}

// rowRange returns [lo, hi).
func rowRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// selectCols copies columns [lo,hi) of m into a new matrix.
func selectCols(m *bitmatrix.Matrix, lo, hi int) *bitmatrix.Matrix {
	out := bitmatrix.New(m.Rows(), hi-lo)
	for i := 0; i < m.Rows(); i++ {
		for j := lo; j < hi; j++ {
			if m.At(i, j) {
				out.Set(i, j-lo, true)
			}
		}
	}
	return out
}

// crsRecoverySets is the body of RecoverySets — the same data-heavy +
// cyclic-window families as the matrix RS code.
func crsRecoverySets(k, m, idx int) [][]int {
	n := k + m
	if idx < 0 || idx >= n {
		panic(fmt.Sprintf("crs: element %d out of [0,%d)", idx, n))
	}
	var sets [][]int
	otherData := make([]int, 0, k)
	for j := 0; j < k; j++ {
		if j != idx {
			otherData = append(otherData, j)
		}
	}
	if idx < k {
		for p := k; p < n; p++ {
			sets = append(sets, append(append([]int{}, otherData...), p))
		}
	} else {
		sets = append(sets, otherData)
	}
	for t := 0; t < n-k; t++ {
		set := make([]int, 0, k)
		for j := 0; j < k; j++ {
			set = append(set, (idx+1+t+j)%n)
		}
		sets = append(sets, set)
	}
	return sets
}
