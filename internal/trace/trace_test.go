package trace

import "testing"

func TestSegmentStrings(t *testing.T) {
	cases := map[Segment]string{Code: "code", Heap: "heap", Shard: "shard", Stack: "stack", Segment(9): "segment(9)"}
	for seg, want := range cases {
		if seg.String() != want {
			t.Errorf("%d.String() = %q, want %q", seg, seg.String(), want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{Fetch: "fetch", Read: "read", Write: "write", Kind(7): "kind(7)"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestWorkingSetBasics(t *testing.T) {
	ws := NewWorkingSet(64)
	ws.Observe(Access{Addr: 0, Size: 1, Seg: Heap})
	ws.Observe(Access{Addr: 63, Size: 1, Seg: Heap})   // same block
	ws.Observe(Access{Addr: 64, Size: 1, Seg: Heap})   // next block
	ws.Observe(Access{Addr: 100, Size: 1, Seg: Shard}) // other segment
	if got := ws.Bytes(Heap); got != 128 {
		t.Fatalf("heap footprint %d, want 128", got)
	}
	if got := ws.Bytes(Shard); got != 64 {
		t.Fatalf("shard footprint %d, want 64", got)
	}
}

func TestWorkingSetSpanningAccess(t *testing.T) {
	ws := NewWorkingSet(64)
	// 8-byte access at block boundary touches two blocks.
	ws.Observe(Access{Addr: 60, Size: 8, Seg: Heap})
	if got := ws.Bytes(Heap); got != 128 {
		t.Fatalf("spanning footprint %d, want 128", got)
	}
	// Zero-size access counts one block.
	ws2 := NewWorkingSet(64)
	ws2.Observe(Access{Addr: 10, Size: 0, Seg: Heap})
	if got := ws2.Bytes(Heap); got != 64 {
		t.Fatalf("zero-size footprint %d, want 64", got)
	}
}

func TestWorkingSetBadBlockSize(t *testing.T) {
	for _, bs := range []int{0, -1, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("block size %d did not panic", bs)
				}
			}()
			NewWorkingSet(bs)
		}()
	}
}

func TestWorkingSetMonotone(t *testing.T) {
	// Property: observing a superset of accesses never shrinks the footprint.
	base := []Access{{Addr: 0, Size: 4, Seg: Heap}, {Addr: 1000, Size: 4, Seg: Heap}}
	extra := append(append([]Access(nil), base...), Access{Addr: 5000, Size: 4, Seg: Heap})
	w1, w2 := NewWorkingSet(64), NewWorkingSet(64)
	for _, a := range base {
		w1.Observe(a)
	}
	for _, a := range extra {
		w2.Observe(a)
	}
	if w2.Bytes(Heap) < w1.Bytes(Heap) {
		t.Fatal("footprint shrank with more accesses")
	}
}
