package mpsim

// poolScanDepth bounds how many free-list entries get, called from
// Proc.AcquireBuf, examines before giving up and allocating. Mixed-size
// rounds — the circulant concatenation's table-partitioned last round
// sends several area sizes back to back — interleave releases of small
// and large buffers, so the fitting buffer is frequently one or two
// entries below the newest; a short scan finds it where a pop-newest
// policy would drop the small buffer and allocate every round. The
// bound keeps the scan O(1) so the validated hot path stays cheap even
// with a deep pool.
const poolScanDepth = 4

// poolMaxFree bounds a rank's free list. Buffers cycle sender ->
// transport -> receiver's pool, so a rank that receives more messages
// than it sends (a leader's members in a hierarchical broadcast, a
// destination of zero-row layouts) would otherwise hoard every buffer it
// is handed, forever. The deepest steady state measured over the golden
// corpus and its s=16 pipeline requests, 1000 runs each on a reused
// engine, is 10 buffers (the k=3 packed Bruck index); a full pool drops
// its oldest buffer for each one returned, so the newest — the ones get
// scans — are always the most recently used.
const poolMaxFree = 16

// bufPool is a rank-local free list of payload buffers. It is owned by
// that rank's worker (one Run at a time, one worker per rank — and the
// engine replaces the pools wholesale when a deadlocked run may still be
// touching them), so no lock is needed.
type bufPool struct {
	free [][]byte
}

func newPools(n int) []*bufPool {
	pools := make([]*bufPool, n)
	for i := range pools {
		pools[i] = new(bufPool)
	}
	return pools
}

// get returns a length-n buffer with undefined contents, reusing the
// newest pooled buffer of sufficient capacity among the top
// poolScanDepth entries. When none of the scanned buffers fits, the
// newest is dropped — so the pool converges to the capacities actually
// in flight instead of growing without bound — and a fresh buffer is
// allocated.
func (pl *bufPool) get(n int) []byte {
	if n == 0 {
		// Zero-length payloads (ragged layouts may carry empty blocks)
		// need no backing memory; handing out a pooled buffer would only
		// churn the free list's recency order.
		return nil
	}
	free := pl.free
	for i, scanned := len(free)-1, 0; i >= 0 && scanned < poolScanDepth; i, scanned = i-1, scanned+1 {
		if cap(free[i]) >= n {
			b := free[i]
			last := len(free) - 1
			free[i] = free[last]
			free[last] = nil
			pl.free = free[:last]
			return b[:n]
		}
	}
	if last := len(free) - 1; last >= 0 {
		free[last] = nil
		pl.free = free[:last]
	}
	return make([]byte, n)
}

// put returns a buffer to the pool. Zero-capacity buffers are not worth
// keeping.
func (pl *bufPool) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	if len(pl.free) == poolMaxFree {
		pl.free = pl.free[:copy(pl.free, pl.free[1:])]
	}
	pl.free = append(pl.free, b)
}
