package cache

import (
	"encoding/binary"

	"searchmem/internal/trace"
)

// A Stream keeps an upper's ports — everything that crossed the L3's lower
// port over a run — so that tails can be replayed from it without running
// the L1–L3 again. It is delta+varint encoded the way a recording's branch
// log is (internal/workload/branchlog.go), in chunks that decode
// independently into one reused Port. Per event:
//
//	head byte (op | payload<<2 | seg<<4 | 0x40 when addr has bits below 64 B)
//	addr>>6 delta from the previous event of the same op, zigzag varint
//	[addr&63 byte, only with 0x40]
//
// and per L1-miss record (after all of a chunk's events):
//
//	level byte | pc delta zigzag varint | block delta zigzag varint
//
// A chunk is whole ports concatenated: each L1-miss record that went below
// the L3 still meets its demand event in the same chunk, in order, which is
// all Tail.Drain needs. Events lose their batch index, so a replay resolves
// no levels.

// streamChunkLen is the record count (events plus misses) after which the
// open chunk is sealed; a port is never split across chunks.
const streamChunkLen = 8192

// streamArenaLen is the allocation unit of sealed chunk bytes.
const streamArenaLen = 256 << 10

// streamChunk is one independently decodable run of ports.
type streamChunk struct {
	data           []byte
	split          int // data[:split] holds the events, data[split:] the misses
	events, misses int
}

// Stream is a sealed post-L3 event stream, immutable and safe to replay
// from any number of goroutines at once.
type Stream struct {
	chunks         []streamChunk
	events, misses int
	size           int64
}

// Events returns the number of post-L3 events in the stream.
func (s *Stream) Events() int { return s.events }

// Misses returns the number of L1-miss records in the stream (zero unless
// its upper keyed misses for a level predictor).
func (s *Stream) Misses() int { return s.misses }

// Bytes returns the stream's encoded size.
func (s *Stream) Bytes() int64 { return s.size }

// StreamWriter encodes ports into a Stream as an upper produces them. The
// zero value is ready to use.
type StreamWriter struct {
	s      Stream
	arena  []byte
	ev, ms []byte // the open chunk's event and miss encodings
	events int    // records in ev
	misses int    // records in ms
	// Delta chains, restarted at every chunk: per event op, and per miss key.
	addr      [opMask + 1]uint64
	pc, block uint64
}

// Add appends one port.
func (w *StreamWriter) Add(p *Port) {
	for _, e := range p.events {
		op := e.op & opMask
		head := e.op | uint8(e.seg)<<4
		if e.addr&63 != 0 {
			head |= 0x40
		}
		w.ev = append(w.ev, head)
		w.ev = binary.AppendVarint(w.ev, int64(e.addr>>6-w.addr[op]))
		if head&0x40 != 0 {
			w.ev = append(w.ev, uint8(e.addr&63))
		}
		w.addr[op] = e.addr >> 6
	}
	for _, m := range p.misses {
		w.ms = append(w.ms, uint8(m.level))
		w.ms = binary.AppendVarint(w.ms, int64(m.pc-w.pc))
		w.ms = binary.AppendVarint(w.ms, int64(m.block-w.block))
		w.pc, w.block = m.pc, m.block
	}
	w.events += len(p.events)
	w.misses += len(p.misses)
	if w.events+w.misses >= streamChunkLen {
		w.seal()
	}
}

// seal closes the open chunk and restarts the delta chains.
func (w *StreamWriter) seal() {
	if w.events+w.misses == 0 {
		return
	}
	n := len(w.ev) + len(w.ms)
	if n > cap(w.arena)-len(w.arena) {
		w.arena = make([]byte, 0, max(streamArenaLen, n))
	}
	w.arena = append(w.arena, w.ev...)
	w.arena = append(w.arena, w.ms...)
	data := w.arena[len(w.arena)-n : len(w.arena) : len(w.arena)]
	w.s.chunks = append(w.s.chunks, streamChunk{data: data, split: len(w.ev), events: w.events, misses: w.misses})
	w.s.events += w.events
	w.s.misses += w.misses
	w.s.size += int64(n)
	w.ev, w.ms, w.events, w.misses = w.ev[:0], w.ms[:0], 0, 0
	w.addr, w.pc, w.block = [opMask + 1]uint64{}, 0, 0
}

// Finish seals the open chunk and returns the stream; the writer starts
// over empty.
func (w *StreamWriter) Finish() *Stream {
	w.seal()
	s := w.s
	*w = StreamWriter{}
	return &s
}

// Replay decodes the stream chunk by chunk into p (reused scratch, grown
// once to the largest chunk) and hands each to fn.
func (s *Stream) Replay(p *Port, fn func(*Port)) {
	for i := range s.chunks {
		decodeChunk(&s.chunks[i], p)
		fn(p)
	}
}

// decodeChunk decodes one chunk into p. Only StreamWriter produces the
// bytes and they never leave memory, so anything malformed is a bug and
// panics.
func decodeChunk(c *streamChunk, p *Port) {
	if cap(p.events) < c.events {
		p.events = make([]portEvent, 0, c.events)
	}
	if cap(p.misses) < c.misses {
		p.misses = make([]l1Miss, 0, c.misses)
	}
	evs, ms := p.events[:c.events], p.misses[:c.misses]
	data := c.data
	var addr [opMask + 1]uint64
	at := 0
	for i := range evs {
		head := data[at]
		op := head & opMask
		var d int64
		d, at = varintAt(data, at+1)
		addr[op] += uint64(d)
		a := addr[op] << 6
		if head&0x40 != 0 {
			a |= uint64(data[at])
			at++
		}
		evs[i] = portEvent{addr: a, seg: trace.Segment(head >> 4 & 3), op: head & 0x0f}
	}
	if at != c.split {
		panic("cache: corrupt post-L3 stream: event section length")
	}
	var pc, block uint64
	for i := range ms {
		lvl := HitLevel(data[at])
		var dp, db int64
		dp, at = varintAt(data, at+1)
		db, at = varintAt(data, at)
		pc += uint64(dp)
		block += uint64(db)
		ms[i] = l1Miss{pc: pc, block: block, level: lvl}
	}
	if at != len(data) {
		panic("cache: corrupt post-L3 stream: trailing bytes")
	}
	p.events, p.misses = evs, ms
}

// varintAt reads the zigzag varint at data[p:] and returns it with the
// offset after it.
func varintAt(data []byte, p int) (int64, int) {
	v, n := binary.Varint(data[p:])
	if n <= 0 {
		panic("cache: corrupt post-L3 stream: truncated or overlong varint")
	}
	return v, p + n
}
