package store

import (
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
)

// runClasses is the number of pooled size classes: class c holds 1<<c
// cells, up to 64. Larger buffers are plain allocations.
const runClasses = 7

// poisonReleased, on in test binaries, fills every pooled buffer with
// poisonByte as it goes back: a reader that keeps a cell past its release
// then reads poison, never stale bytes that happen to be right.
var poisonReleased = testing.Testing()

const poisonByte = 0xdb

// RunBuf is one buffer a RunPool lends: Data holds the bytes asked for, and
// CRCs a checksum per whole cell of them.
type RunBuf struct {
	Data  []byte
	CRCs  []uint32
	class int // -1: not pooled
	data  []byte
	crcs  []uint32
}

// RunPool lends the buffers bytes live in between a device and a socket —
// the executor's read runs, a data node's batch reads and write frames, a
// PUT's body — in power-of-two classes of elem-byte cells. It pools
// *RunBuf: boxing a slice into a sync.Pool allocates on every Put.
type RunPool struct {
	elem    int
	classes [runClasses]sync.Pool // *RunBuf
	lent    atomic.Int64
}

// NewRunPool creates an empty pool of elem-byte cells.
func NewRunPool(elem int) *RunPool { return &RunPool{elem: elem} }

// Get lends a buffer of n bytes, to Put back once nothing reads it.
func (p *RunPool) Get(n int) *RunBuf {
	cells := (n + p.elem - 1) / p.elem
	class := bits.Len(uint(max(cells, 1) - 1))
	var b *RunBuf
	if class >= runClasses {
		b = &RunBuf{class: -1, data: make([]byte, n), crcs: make([]uint32, cells)}
	} else {
		p.lent.Add(1)
		if b, _ = p.classes[class].Get().(*RunBuf); b == nil {
			b = &RunBuf{class: class, data: make([]byte, p.elem<<class), crcs: make([]uint32, 1<<class)}
		}
	}
	b.Data, b.CRCs = b.data[:n:n], b.crcs[:n/p.elem:n/p.elem]
	return b
}

// Put takes back a buffer Get lent; nil and unpooled buffers are dropped.
func (p *RunPool) Put(b *RunBuf) {
	if b == nil || b.class < 0 {
		return
	}
	if poisonReleased {
		b.data[0] = poisonByte
		for n := 1; n < len(b.data); n *= 2 {
			copy(b.data[n:], b.data[:n])
		}
	}
	b.Data, b.CRCs = nil, nil
	p.lent.Add(-1)
	p.classes[b.class].Put(b)
}

// Lent returns how many pooled buffers are out: zero while no request is
// in flight, unless some path forgot its Put.
func (p *RunPool) Lent() int { return int(p.lent.Load()) }

// maxPresizedBody caps the buffer ReadBody sizes from a declared length
// alone, so a header cannot make the process allocate what is never sent.
const maxPresizedBody = 64 << 20

// ReadBody reads a body of the declared length (negative: unknown) from r
// into one buffer from p of exactly that size (io.ReadAll's, unpooled, for
// an unknown or larger length). A PUT hands its Data to WAL.Put and Puts it
// back after a nil-error return, when the WAL holds no reference; after an
// error the WAL may still reference it, so it is dropped, never pooled.
func (p *RunPool) ReadBody(r io.Reader, length int64) (*RunBuf, error) {
	if length < 0 || length > maxPresizedBody {
		data, err := io.ReadAll(r)
		return &RunBuf{Data: data, class: -1}, err
	}
	b := p.Get(int(length))
	if _, err := io.ReadFull(r, b.Data); err != nil {
		p.Put(b)
		return nil, err
	}
	return b, nil
}
