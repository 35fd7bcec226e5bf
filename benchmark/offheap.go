package main

import (
	"sync/atomic"
	"syscall"
	"unsafe"
)

// What the benchmark records on the clock — one record per completed
// window and per estimate, a span per traced call — lives outside the
// Go heap. On the heap it would grow the live set by tens of megabytes
// over a phase, the collector would run ever less often, and the
// program under test, which allocates per window, would speed up by a
// quarter between the first second of a phase and the thirtieth
// (measured: 2.6 M to 3.8 M dp/s). Off the heap the collector paces on
// the program's own live set, as it would in a deployment.

// offHeap returns n zeroed values of a pointer-free type T in anonymous
// mapped memory. Untouched pages cost nothing; the mapping lasts as
// long as the process.
func offHeap[T any](n int) []T {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size == 0 {
		return nil
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		panic("benchmark: mmap: " + err.Error())
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)
}

// chunkRecs is how many records a chain takes from its arena at a time.
const chunkRecs = 64

// arena hands out chunks of off-heap records to any number of chains.
type arena[T any] struct {
	recs []T
	next atomic.Int64 // chunks handed out
}

func newArena[T any](records int) *arena[T] {
	return &arena[T]{recs: offHeap[T](records / chunkRecs * chunkRecs)}
}

// reset takes every chunk back; the chains that held them must be reset
// too.
func (a *arena[T]) reset() { a.next.Store(0) }

// touchedBytes is how much of the arena has been handed out since the
// last reset, and so is resident.
func (a *arena[T]) touchedBytes() int64 {
	var zero T
	return a.next.Load() * chunkRecs * int64(unsafe.Sizeof(zero))
}

// chain is an append-only sequence of records in an arena, written by
// one goroutine at a time. Its chunk list is on the heap, one int32 per
// 64 records.
type chain[T any] struct {
	a      *arena[T]
	chunks []int32
	n      int
	lost   int // records dropped because the arena was exhausted
}

func (c *chain[T]) reset() { c.chunks, c.n, c.lost = c.chunks[:0], 0, 0 }

func (c *chain[T]) len() int { return c.n }

func (c *chain[T]) add(v T) {
	if c.n%chunkRecs == 0 {
		k := c.a.next.Add(1) - 1
		if int(k+1)*chunkRecs > len(c.a.recs) {
			c.lost++
			return
		}
		c.chunks = append(c.chunks, int32(k))
	}
	c.a.recs[int(c.chunks[c.n/chunkRecs])*chunkRecs+c.n%chunkRecs] = v
	c.n++
}

func (c *chain[T]) at(i int) *T {
	return &c.a.recs[int(c.chunks[i/chunkRecs])*chunkRecs+i%chunkRecs]
}
