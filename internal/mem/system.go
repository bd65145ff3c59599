package mem

import "searchmem/internal/trace"

// This file is the tier system: page-granular residency over an
// open-addressed page table, epoch-based hot/cold placement, and the access
// kernels the cache hierarchy (or a raw trace) drives.
//
// The page table is two slices — entries in first-touch order plus a
// power-of-two slot index — rather than a Go map: every scan the placement
// engine performs walks entries in first-touch order, so residency decisions
// never depend on map iteration order, and the lookup hot path stays free of
// map-assign allocations. Growth happens only on first touch of a new page;
// a warmed-up steady-state replay performs zero allocations (pinned by the
// AllocsPerRun oracles in alloc_test.go).

// pageEntry is the per-touched-page placement state.
type pageEntry struct {
	page      uint64 // page number (addr >> pageShift)
	epochHits uint32 // accesses in the current epoch
	lastEpoch uint32 // epoch of the most recent access
	seg       uint8
	near      bool
}

// System simulates one tiered main-memory system. It is not safe for
// concurrent use; each simulated hierarchy owns one System (matching
// cache.Hierarchy's discipline).
type System struct {
	cfg  Config
	dram *dramSim

	// Open-addressed page table: slots holds indices into entries (-1 =
	// empty); entries is append-only, in first-touch order.
	entries   []pageEntry
	slots     []int32
	hashShift uint // 64 - log2(len(slots))
	nearCount int64

	epoch      uint32
	sinceEpoch int64
	nowNS      float64

	st Stats
}

// NewSystem builds a system from cfg. A far tier needs positive NearPages
// and EpochLen (it panics otherwise, like cache.NewHierarchy on a bad
// shape).
func NewSystem(cfg Config) *System { return newSystem(cfg, windowDepth) }

// newSystem is NewSystem with the near tier's scheduling window as an
// argument (see newDRAMSim).
func newSystem(cfg Config, depth int) *System {
	if f := cfg.Far; f != nil {
		if f.NearPages <= 0 {
			panic("mem: far tier requires positive NearPages")
		}
		if f.EpochLen <= 0 {
			panic("mem: far tier requires positive EpochLen")
		}
	}
	s := &System{cfg: cfg, dram: newDRAMSim(depth)}
	const initialSlots = 1 << 16
	s.slots = make([]int32, initialSlots)
	for i := range s.slots {
		s.slots[i] = -1
	}
	s.hashShift = 64 - log2(initialSlots)
	s.entries = make([]pageEntry, 0, initialSlots*3/4)
	return s
}

// lookup returns the entry for addr's page, inserting it on first touch.
func (s *System) lookup(addr uint64, seg trace.Segment) *pageEntry {
	pg := addr >> pageShift
	h := (pg * 0x9e3779b97f4a7c15) >> s.hashShift
	mask := uint64(len(s.slots) - 1)
	for {
		i := s.slots[h]
		if i < 0 {
			return s.insert(pg, seg, h)
		}
		if s.entries[i].page == pg {
			return &s.entries[i]
		}
		h = (h + 1) & mask
	}
}

// insert places a first-touched page: near while the near tier has room,
// far otherwise.
func (s *System) insert(pg uint64, seg trace.Segment, slot uint64) *pageEntry {
	near := true
	if s.cfg.Far != nil && s.nearCount >= s.cfg.Far.NearPages {
		near = false
	}
	if near {
		s.nearCount++
	}
	s.entries = append(s.entries, pageEntry{page: pg, lastEpoch: s.epoch, seg: uint8(seg & 3), near: near})
	s.slots[slot] = int32(len(s.entries) - 1)
	if len(s.entries)*4 > len(s.slots)*3 {
		s.grow()
	}
	return &s.entries[len(s.entries)-1]
}

// grow doubles the slot table and rehashes every entry (first-touch order).
func (s *System) grow() {
	newLen := len(s.slots) * 2
	slots := make([]int32, newLen)
	for i := range slots {
		slots[i] = -1
	}
	shift := uint(64) - log2(uint64(newLen))
	mask := uint64(newLen - 1)
	for i := range s.entries {
		h := (s.entries[i].page * 0x9e3779b97f4a7c15) >> shift
		for slots[h] >= 0 {
			h = (h + 1) & mask
		}
		slots[h] = int32(i)
	}
	s.slots, s.hashShift = slots, shift
}

// MemRead services one post-hierarchy read (a demand or prefetch fetch that
// reached main memory). It implements cache.MemSink.
func (s *System) MemRead(addr uint64, seg trace.Segment) {
	e := s.lookup(addr, seg)
	arrival := s.nowNS
	s.nowNS += arrivalNS
	s.st.Reads++
	s.st.SegReads[seg&3]++
	if e.near {
		s.dram.enqueue(addr, false, arrival, &s.st)
	} else {
		s.st.FarReads++
		s.st.SegFarReads[seg&3]++
		s.st.ReadNSSum += farReadNS
	}
	e.epochHits++
	e.lastEpoch = s.epoch
	s.tick()
}

// MemWrite services one writeback that reached main memory. It implements
// cache.MemSink.
func (s *System) MemWrite(addr uint64, seg trace.Segment) {
	e := s.lookup(addr, seg)
	arrival := s.nowNS
	s.nowNS += arrivalNS
	s.st.Writes++
	if e.near {
		s.dram.enqueue(addr, true, arrival, &s.st)
	} else {
		s.st.FarWrites++
		s.st.WriteNSSum += farWriteNS
	}
	e.epochHits++
	e.lastEpoch = s.epoch
	s.tick()
}

// tick advances the epoch counter and runs the placement engine at epoch
// boundaries.
func (s *System) tick() {
	if s.cfg.Far == nil {
		return
	}
	s.sinceEpoch++
	if s.sinceEpoch >= s.cfg.Far.EpochLen {
		s.sinceEpoch = 0
		s.rebalance()
	}
}

// rebalance closes an epoch: apply the placement policy, charge migrations,
// and reset per-epoch counters. Scans walk entries in first-touch order, so
// the outcome is a pure function of the access sequence.
func (s *System) rebalance() {
	f := s.cfg.Far
	s.st.Epochs++
	closing := s.epoch
	s.epoch++
	if f.Policy == PolicyStatic {
		for i := range s.entries {
			s.entries[i].epochHits = 0
		}
		return
	}

	// Demotion pass: free near slots held by pages the policy considers
	// cold as of the closing epoch.
	for i := range s.entries {
		e := &s.entries[i]
		if !e.near {
			continue
		}
		cold := false
		switch f.Policy {
		case PolicyLRUEpoch:
			cold = e.lastEpoch+maxIdleEpochs <= closing
		case PolicyFreqThreshold:
			cold = e.epochHits < promoteEpochHits
		}
		if cold {
			e.near = false
			s.nearCount--
			s.migrate()
		}
	}
	// Promotion pass: move hot far pages near while there is room.
	for i := range s.entries {
		if s.nearCount >= f.NearPages {
			break
		}
		e := &s.entries[i]
		if e.near {
			continue
		}
		hot := false
		switch f.Policy {
		case PolicyLRUEpoch:
			hot = e.lastEpoch == closing
		case PolicyFreqThreshold:
			hot = e.epochHits >= promoteEpochHits
		}
		if hot {
			e.near = true
			s.nearCount++
			s.migrate()
		}
	}
	for i := range s.entries {
		s.entries[i].epochHits = 0
	}
}

// migrate charges one page move.
func (s *System) migrate() {
	s.st.Migrations++
	s.st.MigratedBytes += pageBytes
	s.st.MigrationNS += migratePageNS
}

// Snapshot drains the scheduling windows and returns the current counters
// plus a page-population census. Draining mutates timing state, so the
// caller should snapshot at phase boundaries (reduce does, once per run);
// repeated snapshots are stable between accesses.
func (s *System) Snapshot() Stats {
	s.dram.drain(&s.st)
	st := s.st
	st.Pages = int64(len(s.entries))
	st.NearPages = s.nearCount
	st.FarPages = st.Pages - s.nearCount
	for i := range s.entries {
		e := &s.entries[i]
		st.SegPages[e.seg&3]++
		if !e.near {
			st.SegFarPages[e.seg&3]++
		}
	}
	return st
}

// ResetStats drains the scheduling windows and zeroes all counters while
// preserving residency, per-page epoch state, bank state, and the virtual
// clock — the warmup/measure split cache.Hierarchy.ResetStats performs.
func (s *System) ResetStats() {
	s.dram.drain(&s.st)
	s.st = Stats{}
}
