package workload

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// branchEvent is one branch as a Branch sink receives it, with its anchor.
type branchEvent struct {
	pos    int
	thread uint8
	pc     uint64
	taken  bool
}

// encodeBranches runs events through a branchWriter.
func encodeBranches(events []branchEvent) branchLog {
	var w branchWriter
	for _, e := range events {
		w.add(e.pos, e.thread, e.pc, e.taken)
	}
	return w.finish()
}

// drain reads the rest of a cursor's log.
func drain(cur *branchCursor) []branchEvent {
	var out []branchEvent
	for chunk := cur.nextChunk(); len(chunk) > 0; chunk = cur.nextChunk() {
		for _, b := range chunk {
			out = append(out, branchEvent{pos: b.pos(), thread: b.thread(), pc: b.pc, taken: b.taken()})
		}
	}
	return out
}

// checkBranchLog requires a log of events to decode to them — from a fresh
// cursor, from the same cursor rewound, and from a second cursor — and to
// keep the chunk geometry: every chunk full but the last.
func checkBranchLog(t *testing.T, events []branchEvent) {
	t.Helper()
	log := encodeBranches(events)
	if log.n != len(events) || len(log.chunks) != (len(events)+branchChunkLen-1)/branchChunkLen {
		t.Fatalf("%d events: log holds %d records in %d chunks", len(events), log.n, len(log.chunks))
	}
	var size int64
	for i, ch := range log.chunks {
		if want := min(branchChunkLen, len(events)-i*branchChunkLen); ch.count != want {
			t.Fatalf("chunk %d holds %d records, want %d", i, ch.count, want)
		}
		size += int64(len(ch.data))
	}
	if log.size != size {
		t.Fatalf("log.size = %d, chunks hold %d bytes", log.size, size)
	}
	cur := branchCursor{log: &log}
	for _, pass := range []string{"first read", "rewound"} {
		if got := drain(&cur); !slices.Equal(got, events) {
			t.Fatalf("%s: decoded %d events that differ from the %d encoded%s", pass, len(got), len(events), firstDiff(got, events))
		}
		cur.next = 0
	}
	if got := drain(&branchCursor{log: &log}); !slices.Equal(got, events) {
		t.Fatalf("second cursor: decoded events differ%s", firstDiff(got, events))
	}
}

func firstDiff(got, want []branchEvent) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf(": event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// TestBranchLogRoundTrip drives the codec across its chunk edges with every
// meta width (threads below and above 64), PC deltas of every varint length
// in both directions (wrapping through zero), runs of branches at one anchor
// and anchors that jump by more than 2^32.
func TestBranchLogRoundTrip(t *testing.T) {
	threads := []uint8{0, 14, 15, 63, 64, 255}
	for _, n := range []int{0, 1, branchChunkLen - 1, branchChunkLen, branchChunkLen + 1, 3*branchChunkLen + 7} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			events := make([]branchEvent, n)
			var pos int
			var pc uint64
			for i := range events {
				step := uint64(1) << (i % 33) // 1 B ... 2^32
				if i/33%2 == 1 {
					step = -step
				}
				pc += step
				switch {
				case i%97 == 96:
					pos += 1<<32 + i
				case i%5 == 0:
					pos++
				}
				events[i] = branchEvent{pos: pos, thread: threads[i%len(threads)], pc: pc, taken: i%3 == 0}
			}
			checkBranchLog(t, events)
		})
	}
}

// FuzzBranchLogRoundTrip: any stream with non-decreasing anchors encodes and
// decodes to itself. The input is read as 11-byte records (thread, taken and
// anchor-step scale, anchor step, absolute PC) and played repeat+1 times so
// small inputs still cross chunk edges.
func FuzzBranchLogRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 1, 0, 0x10, 0, 0x40, 0, 0, 0, 0, 0}, uint8(0))
	seed := make([]byte, 0, 11*600)
	for i := 0; i < 600; i++ {
		seed = append(seed, uint8(i*37), uint8(i*11), uint8(i%4))
		seed = binary.LittleEndian.AppendUint64(seed, uint64(i)*uint64(i)<<(i%50))
	}
	f.Add(seed, uint8(30)) // 18 600 records: two chunk edges
	f.Fuzz(func(t *testing.T, data []byte, repeat uint8) {
		const rec = 11
		var events []branchEvent
		pos := 0
		for r := 0; r <= int(repeat) && len(events) < 4*branchChunkLen; r++ {
			for i := 0; i+rec <= len(data); i += rec {
				b := data[i : i+rec]
				if step := int(b[2]) << (b[1] >> 1 % 36); pos+step < 1<<54 { // recordedBranch keeps 55 bits
					pos += step
				}
				events = append(events, branchEvent{pos: pos, thread: b[0], pc: binary.LittleEndian.Uint64(b[3:]), taken: b[1]&1 != 0})
			}
		}
		checkBranchLog(t, events)
	})
}
