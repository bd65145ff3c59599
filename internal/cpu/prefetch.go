package cpu

import (
	"searchmem/internal/cache"
	"searchmem/internal/trace"
)

// Prefetcher inspects the demand-access stream and proposes block addresses
// to bring into the cache ahead of use. PLT1-like platforms enable a
// next/adjacent-line pair plus an L2 streamer (§II-E); the reproduction
// models both families.
type Prefetcher interface {
	// OnAccess observes one demand access (block-aligned byte address and
	// whether it hit in the L1) and appends prefetch candidate byte
	// addresses to out, returning the extended slice.
	OnAccess(byteAddr uint64, hit bool, out []uint64) []uint64
	// Name identifies the prefetcher in reports.
	Name() string
}

// NextLine prefetches the sequentially next block(s): the simplest spatial
// prefetcher (the "adjacent line" L2 prefetcher on PLT1). With OnEveryAccess
// set it fires on hits too and runs Degree blocks deep, modeling
// aggressive-default engines like POWER8's, whose useless fills pollute the
// caches and waste bandwidth (the paper measures a net degradation there).
type NextLine struct {
	// BlockSize is the prefetch granularity in bytes.
	BlockSize uint64
	// Degree is how many sequential blocks to fetch.
	Degree int
	// OnEveryAccess fires on hits as well as misses.
	OnEveryAccess bool
}

// Name implements Prefetcher.
func (NextLine) Name() string { return "next-line" }

// OnAccess implements Prefetcher.
func (p NextLine) OnAccess(byteAddr uint64, hit bool, out []uint64) []uint64 {
	if hit && !p.OnEveryAccess {
		return out
	}
	for i := 1; i <= p.Degree; i++ {
		out = append(out, byteAddr+uint64(i)*p.BlockSize)
	}
	return out
}

// streamEntry tracks one detected sequential stream.
type streamEntry struct {
	lastBlock uint64
	dir       int64 // +1 ascending, -1 descending
	conf      int8  // confirmations observed
}

// The stream prefetcher's conventional parameters.
const (
	// streamRegionShift groups addresses into tracking regions: a 4 KiB
	// page.
	streamRegionShift = 12
	// streamMaxEntries bounds the tracking table.
	streamMaxEntries = 64
	// streamDegree is how many blocks ahead to prefetch once a stream is
	// confirmed.
	streamDegree = 2
)

// Stream is a stride/stream prefetcher: it watches per-region access
// patterns and, after two same-direction sequential accesses, runs ahead of
// the stream by streamDegree blocks. Posting-list scans through the shard
// segment are exactly the pattern it accelerates.
type Stream struct {
	// BlockSize is the prefetch granularity in bytes.
	BlockSize uint64

	degree int
	table  map[uint64]*streamEntry
	order  []uint64 // FIFO of region keys for eviction
}

// NewStream returns a stream prefetcher with conventional parameters.
func NewStream(blockSize uint64) *Stream { return newStream(blockSize, streamDegree) }

// newStream is NewStream at any degree, for tests that need another one.
func newStream(blockSize uint64, degree int) *Stream {
	return &Stream{BlockSize: blockSize, degree: degree, table: make(map[uint64]*streamEntry)}
}

// Name implements Prefetcher.
func (s *Stream) Name() string { return "stream" }

// OnAccess implements Prefetcher.
func (s *Stream) OnAccess(byteAddr uint64, hit bool, out []uint64) []uint64 {
	block := byteAddr / s.BlockSize
	region := byteAddr >> streamRegionShift
	e, ok := s.table[region]
	if !ok {
		if len(s.table) >= streamMaxEntries {
			// Evict the oldest tracked region.
			oldest := s.order[0]
			s.order = s.order[1:]
			delete(s.table, oldest)
		}
		s.table[region] = &streamEntry{lastBlock: block}
		s.order = append(s.order, region)
		return out
	}
	switch {
	case block == e.lastBlock+1:
		if e.dir == 1 {
			if e.conf < 8 {
				e.conf++
			}
		} else {
			e.dir, e.conf = 1, 1
		}
	case block+1 == e.lastBlock:
		if e.dir == -1 {
			if e.conf < 8 {
				e.conf++
			}
		} else {
			e.dir, e.conf = -1, 1
		}
	case block == e.lastBlock:
		return out // same block; no new information
	default:
		e.conf = 0 // stream broken
	}
	e.lastBlock = block
	if e.conf >= 2 {
		for i := 1; i <= s.degree; i++ {
			next := int64(block) + e.dir*int64(i)
			if next > 0 {
				out = append(out, uint64(next)*s.BlockSize)
			}
		}
	}
	return out
}

// Engine couples one or more prefetchers per core with a cache hierarchy:
// demand accesses flow through the hierarchy, prefetch candidates are
// installed via InstallPrefetch.
type Engine struct {
	h       *cache.Hierarchy
	perCore [][]Prefetcher
	coreOf  [256]uint8 // thread id -> core, as the hierarchy routes it
	scratch []uint64
}

// NewEngine builds an engine; newPrefetchers is invoked once per core so
// each core gets private prefetcher state.
func NewEngine(h *cache.Hierarchy, cores int, newPrefetchers func() []Prefetcher) *Engine {
	e := &Engine{h: h}
	for i := 0; i < cores; i++ {
		e.perCore = append(e.perCore, newPrefetchers())
	}
	hc := h.Config()
	for t := range e.coreOf {
		e.coreOf[t] = uint8(t / hc.ThreadsPerCore % hc.Cores)
	}
	return e
}

// Access runs one access through the hierarchy with prefetching and returns
// the demand access's servicing level.
func (e *Engine) Access(a trace.Access) cache.HitLevel {
	core := int(e.coreOf[a.Thread])
	lvl := e.h.Access(a)
	if a.Kind == trace.Fetch {
		return lvl // modeled prefetchers are data-side
	}
	e.scratch = e.scratch[:0]
	for _, p := range e.perCore[core] {
		e.scratch = p.OnAccess(a.Addr, lvl == cache.HitL1, e.scratch)
	}
	for _, addr := range e.scratch {
		e.h.InstallPrefetch(core, addr, a.Seg)
	}
	return lvl
}
