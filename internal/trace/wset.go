package trace

// WorkingSet measures the distinct-byte footprint touched by a stream, per
// segment, at cache-block granularity. It is the tool behind the paper's
// Figure 5 (accessed working set for heap and shard as threads scale).
type WorkingSet struct {
	blockShift uint
	blocks     [NumSegments]map[uint64]struct{}
}

// NewWorkingSet returns an analyzer with the given block size (must be a
// power of two; 64 matches the paper's simulations).
func NewWorkingSet(blockSize int) *WorkingSet {
	if blockSize <= 0 || blockSize&(blockSize-1) != 0 {
		panic("trace: block size must be a positive power of two")
	}
	ws := &WorkingSet{blockShift: uint(log2(uint64(blockSize)))}
	for i := range ws.blocks {
		ws.blocks[i] = make(map[uint64]struct{})
	}
	return ws
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Observe records one access (all blocks it spans).
func (w *WorkingSet) Observe(a Access) {
	first := a.Addr >> w.blockShift
	last := (a.Addr + uint64(a.Size) - 1) >> w.blockShift
	if a.Size == 0 {
		last = first
	}
	for b := first; b <= last; b++ {
		w.blocks[a.Seg][b] = struct{}{}
	}
}

// Bytes returns the distinct footprint of seg in bytes.
func (w *WorkingSet) Bytes(seg Segment) uint64 {
	return uint64(len(w.blocks[seg])) << w.blockShift
}
