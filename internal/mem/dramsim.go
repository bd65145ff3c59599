package mem

// This file is the near-tier timing model: per-bank open-row state, bank
// occupancy in virtual time, and a small FR-FCFS-lite scheduling window per
// channel.
//
// Address mapping (row-interleaved): the low rowShift bits of an address
// form the column, the next bits pick the channel, then the bank, and the
// rest the row —
//
//	| row | bank | channel | column |
//
// so a streaming access pattern fills one row before moving to the next
// channel, which is what gives sequential posting-list scans their long
// row-hit runs.
//
// Scheduling: each channel buffers up to windowDepth pending requests. When
// the window is full (or drained explicitly), the scheduler issues the
// oldest request whose target row is already open in its bank — the
// "first-ready" half of FR-FCFS — falling back to the oldest request
// overall. Timing per issued request:
//
//	service = tCAS+tBurst                 row hit
//	        = tRCD+tCAS+tBurst            row miss, bank idle
//	        = tRP+tRCD+tCAS+tBurst        row miss, another row open
//	start   = max(arrival, bank ready)
//	latency = (start - arrival) + service + baseNS
//
// Everything is a deterministic function of the request sequence: the
// virtual clock advances a fixed arrivalNS per memory transaction, and
// tie-breaks always pick the lowest pending index (oldest).

// memReq is one pending near-tier request.
type memReq struct {
	bank      int32 // global bank index (channel folded in)
	write     bool
	row       uint64
	arrivalNS float64
}

// dramSim holds the mutable near-tier state, all sized at
// construction; the hot path never allocates.
type dramSim struct {
	depth int // the scheduling window per channel

	// Per-global-bank state: openRow holds row+1 (0 = closed),
	// readyNS is when the bank next accepts a command.
	openRow [banks]uint64
	readyNS [banks]float64

	// Per-channel pending windows, insertion-ordered (index = age), stored
	// as one flat [channels*depth] backing array plus per-channel counts.
	pend  []memReq
	pendN [channels]int
}

// newDRAMSim builds the near tier with a scheduling window of depth
// requests per channel: windowDepth in every System, and 1 — plain FCFS,
// no reordering — in the tests that time requests against it.
func newDRAMSim(depth int) *dramSim {
	return &dramSim{depth: depth, pend: make([]memReq, channels*depth)}
}

// log2 of a power of two.
func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// enqueue adds one near-tier request for addr, issuing the scheduler's pick
// when the channel window is full. Latency lands in st as requests issue.
func (s *dramSim) enqueue(addr uint64, write bool, arrival float64, st *Stats) {
	ch := (addr >> rowShift) & (channels - 1)
	bank := int32(ch<<bankShift | (addr>>(rowShift+channelShift))&(1<<bankShift-1))
	row := addr >> (rowShift + channelShift + bankShift)
	base := int(ch) * s.depth
	if s.pendN[ch] == s.depth {
		s.issueOne(base, &s.pendN[ch], st)
	}
	s.pend[base+s.pendN[ch]] = memReq{bank: bank, write: write, row: row, arrivalNS: arrival}
	s.pendN[ch]++
}

// issueOne picks and times one request from the channel window starting at
// base: the oldest row-hit if any, else the oldest request. The window stays
// insertion-ordered (older entries shift down over the issued slot).
func (s *dramSim) issueOne(base int, n *int, st *Stats) {
	pick := 0
	for i := 0; i < *n; i++ {
		r := &s.pend[base+i]
		if s.openRow[r.bank] == r.row+1 {
			pick = i
			break
		}
	}
	req := s.pend[base+pick]
	for i := pick; i < *n-1; i++ {
		s.pend[base+i] = s.pend[base+i+1]
	}
	*n--

	var svc float64
	if s.openRow[req.bank] == req.row+1 {
		st.RowHits++
		svc = tCASNS + tBurstNS
	} else {
		st.RowMisses++
		svc = tRCDNS + tCASNS + tBurstNS
		if s.openRow[req.bank] != 0 {
			st.Precharges++
			svc += tRPNS
		}
		s.openRow[req.bank] = req.row + 1
	}
	start := req.arrivalNS
	if s.readyNS[req.bank] > start {
		start = s.readyNS[req.bank]
	}
	s.readyNS[req.bank] = start + svc
	queue := start - req.arrivalNS
	st.QueueNSSum += queue
	lat := queue + svc + baseNS
	if req.write {
		st.WriteNSSum += lat
	} else {
		st.ReadNSSum += lat
	}
}

// drain issues every pending request in all channel windows (channel order,
// then age order). Called before statistics are read or reset so no request
// is left half-accounted.
func (s *dramSim) drain(st *Stats) {
	for ch := range s.pendN {
		base := ch * s.depth
		for s.pendN[ch] > 0 {
			s.issueOne(base, &s.pendN[ch], st)
		}
	}
}
