// Package buffers provides the flat, contiguous data layout every
// collective runs on.
//
// A Buffers value holds all blocks of all processors in a single []byte
// slab: processor i owns one contiguous region of blocks*blockLen
// bytes, and block j of processor i is the sub-slice
//
//	data[(i*blocks+j)*blockLen : (i*blocks+j+1)*blockLen]
//
// Proc and Block return views into the slab — never copies — so the
// collective algorithms can pack from and unpack into caller-owned
// memory with zero per-block allocations. The FromMatrix/ToMatrix and
// FromVector/ToVector converters bridge to [][][]byte block matrices at
// the API boundary, one copy each way.
//
// RotateUp performs the cyclic block rotations of the paper's Phase 1 /
// Phase 3 in place by triple reversal. The compiled programs address
// blocks rank-relatively instead; only the benchmark's probe calls it.
package buffers

import (
	"bytes"
	"fmt"
)

// Buffers is a flat block store: procs processor regions, each holding
// blocks fixed-size blocks of blockLen bytes, in one contiguous slab.
type Buffers struct {
	procs    int
	blocks   int
	blockLen int
	data     []byte
}

// New returns an all-zero Buffers for procs processors with blocks
// blocks of blockLen bytes each.
func New(procs, blocks, blockLen int) (*Buffers, error) {
	if procs < 1 {
		return nil, fmt.Errorf("buffers: procs = %d, want >= 1", procs)
	}
	if blocks < 1 {
		return nil, fmt.Errorf("buffers: blocks = %d, want >= 1", blocks)
	}
	if blockLen < 0 {
		return nil, fmt.Errorf("buffers: blockLen = %d, want >= 0", blockLen)
	}
	return &Buffers{
		procs:    procs,
		blocks:   blocks,
		blockLen: blockLen,
		data:     make([]byte, procs*blocks*blockLen),
	}, nil
}

// Procs returns the number of processor regions.
func (b *Buffers) Procs() int { return b.procs }

// Blocks returns the number of blocks per processor.
func (b *Buffers) Blocks() int { return b.blocks }

// BlockLen returns the size of one block in bytes.
func (b *Buffers) BlockLen() int { return b.blockLen }

// ProcLen returns the size of one processor region in bytes.
func (b *Buffers) ProcLen() int { return b.blocks * b.blockLen }

// Bytes returns the whole slab (a view, not a copy).
func (b *Buffers) Bytes() []byte { return b.data }

// Proc returns the contiguous region of processor i (a view).
func (b *Buffers) Proc(i int) []byte {
	pl := b.ProcLen()
	return b.data[i*pl : (i+1)*pl]
}

// Block returns block j of processor i (a view).
func (b *Buffers) Block(i, j int) []byte {
	off := (i*b.blocks + j) * b.blockLen
	return b.data[off : off+b.blockLen]
}

// Zero clears the slab.
func (b *Buffers) Zero() {
	for i := range b.data {
		b.data[i] = 0
	}
}

// Clone returns a deep copy.
func (b *Buffers) Clone() *Buffers {
	c := &Buffers{procs: b.procs, blocks: b.blocks, blockLen: b.blockLen, data: make([]byte, len(b.data))}
	copy(c.data, b.data)
	return c
}

// Equal reports whether two Buffers have identical shape and contents.
func (b *Buffers) Equal(o *Buffers) bool {
	return b.procs == o.procs && b.blocks == o.blocks && b.blockLen == o.blockLen &&
		bytes.Equal(b.data, o.data)
}

// FromMatrix builds an index-shaped Buffers from the legacy layout
// in[i][j] = block B[i,j]. Every processor must hold the same number of
// equal-length blocks.
func FromMatrix(in [][][]byte) (*Buffers, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("buffers: empty matrix")
	}
	blocks := len(in[0])
	if blocks == 0 {
		return nil, fmt.Errorf("buffers: processor 0 has no blocks")
	}
	blockLen := len(in[0][0])
	b, err := New(len(in), blocks, blockLen)
	if err != nil {
		return nil, err
	}
	for i := range in {
		if len(in[i]) != blocks {
			return nil, fmt.Errorf("buffers: processor %d has %d blocks, processor 0 has %d", i, len(in[i]), blocks)
		}
		for j := range in[i] {
			if len(in[i][j]) != blockLen {
				return nil, fmt.Errorf("buffers: block [%d][%d] has %d bytes, want %d", i, j, len(in[i][j]), blockLen)
			}
			copy(b.Block(i, j), in[i][j])
		}
	}
	return b, nil
}

// FromVector builds a concat-shaped Buffers (one block per processor)
// from the legacy layout in[i] = block B[i].
func FromVector(in [][]byte) (*Buffers, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("buffers: empty vector")
	}
	blockLen := len(in[0])
	b, err := New(len(in), 1, blockLen)
	if err != nil {
		return nil, err
	}
	for i := range in {
		if len(in[i]) != blockLen {
			return nil, fmt.Errorf("buffers: block [%d] has %d bytes, want %d", i, len(in[i]), blockLen)
		}
		copy(b.Block(i, 0), in[i])
	}
	return b, nil
}

// ToMatrix copies the slab out into the legacy layout out[i][j].
func (b *Buffers) ToMatrix() [][][]byte {
	out := make([][][]byte, b.procs)
	for i := range out {
		out[i] = make([][]byte, b.blocks)
		for j := range out[i] {
			out[i][j] = append([]byte(nil), b.Block(i, j)...)
		}
	}
	return out
}

// ToVector copies the slab out into the legacy one-block-per-processor
// layout out[i]; it requires Blocks() == 1.
func (b *Buffers) ToVector() ([][]byte, error) {
	if b.blocks != 1 {
		return nil, fmt.Errorf("buffers: ToVector on a %d-block Buffers", b.blocks)
	}
	out := make([][]byte, b.procs)
	for i := range out {
		out[i] = append([]byte(nil), b.Block(i, 0)...)
	}
	return out, nil
}

// RotateUp cyclically rotates the n blocks stored in region (n*blockLen
// bytes) steps positions upwards, in place: after the call the block
// formerly at position (j+steps) mod n sits at position j. This is the
// rotation of Phases 1 and 3 of the index algorithm and of the final
// local shift of the concatenation, done by triple reversal with O(1)
// extra space.
func RotateUp(region []byte, n, blockLen, steps int) {
	if n <= 1 || blockLen == 0 {
		return
	}
	s := ((steps % n) + n) % n
	if s == 0 {
		return
	}
	cut := s * blockLen
	reverseBytes(region[:cut])
	reverseBytes(region[cut:])
	reverseBytes(region)
}

func reverseBytes(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}
