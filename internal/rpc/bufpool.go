package rpc

import (
	"math/bits"
	"sync"
)

// Size-classed receive-buffer pool for the TCP transport's server side.
//
// Every request a server connection reads needs a meta buffer and (often) a
// bulk buffer; without reuse a provider serving a bulk-heavy workload
// allocates gigabytes per second just to receive frames. Buffers are drawn
// from power-of-two size classes and recycled once the response for the
// request has been fully written — the point after which the buffer-
// ownership contract (see the package comment) forbids anyone from still
// aliasing the request.
//
// Client-side response buffers are never pooled: Call hands the caller an
// exact-size allocation it may retain indefinitely (tensor.Decode and
// proto.SplitBulk alias their inputs, so there is no recycle point).

const (
	// bufPoolMinClass and bufPoolMaxClass bound the pooled size classes:
	// 4 KiB up to 64 MiB. Smaller buffers are cheap enough to allocate;
	// larger ones are rare enough that pinning them in a pool would cost
	// more memory than the allocations save.
	bufPoolMinClass = 12 // 1<<12 = 4 KiB
	bufPoolMaxClass = 26 // 1<<26 = 64 MiB
)

var bufPools [bufPoolMaxClass + 1]sync.Pool

// bufClass returns the size-class exponent for a buffer of n bytes, or -1
// when n is outside the pooled range.
func bufClass(n int) int {
	if n <= 0 || n > 1<<bufPoolMaxClass {
		return -1
	}
	c := bits.Len(uint(n - 1)) // ceil(log2(n))
	if c < bufPoolMinClass {
		c = bufPoolMinClass
	}
	return c
}

// getBuf returns a length-n buffer, drawn from the pool when a size class
// covers n and freshly allocated otherwise.
func getBuf(n int) []byte {
	c := bufClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := bufPools[c].Get(); v != nil {
		return (*v.(*[]byte))[:n]
	}
	return make([]byte, n, 1<<c)
}

// putBuf recycles a buffer previously returned by getBuf. Buffers whose
// capacity is not an exact pooled class (e.g. plain allocations) are left
// to the GC. Callers must guarantee nothing aliases b anymore.
func putBuf(b []byte) {
	c := bufClass(cap(b))
	if c < 0 || cap(b) != 1<<c {
		return
	}
	b = b[:0]
	bufPools[c].Put(&b)
}
