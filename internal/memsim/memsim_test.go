package memsim

import (
	"bytes"
	"slices"
	"testing"

	"searchmem/internal/trace"
)

func collectSpace() (*Space, *[]trace.Access) {
	var accs []trace.Access
	s := NewSpace(func(a trace.Access) { accs = append(accs, a) })
	return s, &accs
}

func TestArenaLayout(t *testing.T) {
	s, _ := collectSpace()
	a := s.NewArena("shard0", trace.Shard, 1024)
	b := s.NewArena("shard1", trace.Shard, 1024)
	h := s.NewArena("heap0", trace.Heap, 1024)
	if a.Base() != ShardBase {
		t.Fatalf("first shard arena at 0x%x", a.Base())
	}
	if b.Base() != ShardBase+1024 {
		t.Fatalf("second shard arena at 0x%x", b.Base())
	}
	if h.Base() != HeapBase {
		t.Fatalf("heap arena at 0x%x", h.Base())
	}
	if a.seg != trace.Shard || a.name != "shard0" || a.Size() != 1024 {
		t.Fatal("arena metadata wrong")
	}
}

func TestAllocAlignment(t *testing.T) {
	s, _ := collectSpace()
	a := s.NewArena("h", trace.Heap, 1024)
	p1 := a.Alloc(3, 0)
	p2 := a.Alloc(8, 8)
	if p1 != a.Base() {
		t.Fatalf("first alloc at 0x%x", p1)
	}
	if p2%8 != 0 || p2 < p1+3 {
		t.Fatalf("aligned alloc at 0x%x", p2)
	}
	if a.Used() != (p2-a.Base())+8 {
		t.Fatalf("used = %d", a.Used())
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	s, _ := collectSpace()
	a := s.NewArena("h", trace.Heap, 16)
	a.Alloc(16, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted arena did not panic")
		}
	}()
	a.Alloc(1, 0)
}

func TestReadWriteRoundTrip(t *testing.T) {
	s, accs := collectSpace()
	a := s.NewArena("h", trace.Heap, 64)
	addr := a.Alloc(16, 8)
	a.WriteU32(1, addr, 0xdeadbeef)
	a.WriteU64(1, addr+8, 0x0123456789abcdef)
	if got := a.ReadU32(1, addr); got != 0xdeadbeef {
		t.Fatalf("ReadU32 = %x", got)
	}
	if got := a.ReadU64(1, addr+8); got != 0x0123456789abcdef {
		t.Fatalf("ReadU64 = %x", got)
	}
	if got := a.ReadU8(2, addr); got != 0xef {
		t.Fatalf("ReadU8 = %x", got)
	}
	// 5 recorded accesses with correct metadata.
	if len(*accs) != 5 {
		t.Fatalf("recorded %d accesses", len(*accs))
	}
	first := (*accs)[0]
	if first.Kind != trace.Write || first.Seg != trace.Heap || first.Thread != 1 || first.Size != 4 || first.Addr != addr {
		t.Fatalf("first access: %+v", first)
	}
}

func TestVarintAccess(t *testing.T) {
	s, accs := collectSpace()
	a := s.NewArena("sh", trace.Shard, 64)
	addr := a.Alloc(16, 0)
	buf := make([]byte, 16)
	// 300 encodes to 2 bytes.
	n := putUvarintHelper(buf, 300)
	a.WriteRaw(addr, buf[:n])
	v, got := a.ReadUvarint(3, addr)
	if v != 300 || got != 2 {
		t.Fatalf("varint read: v=%d n=%d", v, got)
	}
	last := (*accs)[len(*accs)-1]
	if last.Size != 2 || last.Seg != trace.Shard {
		t.Fatalf("varint access: %+v", last)
	}
}

func putUvarintHelper(buf []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		buf[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	buf[i] = byte(v)
	return i + 1
}

func TestBoundsChecking(t *testing.T) {
	s, _ := collectSpace()
	a := s.NewArena("h", trace.Heap, 64)
	cases := []func(){
		func() { a.ReadU8(0, a.Base()-1) },
		func() { a.ReadU32(0, a.Base()+61) },
		func() { a.ReadU64(0, a.Base()+60) },
		func() { a.Touch(0, a.Base()+60, 8, trace.Read) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: out-of-bounds access allowed", i)
				}
			}()
			f()
		}()
	}
}

func TestMutedRecorder(t *testing.T) {
	count := 0
	s := NewSpace(func(trace.Access) { count++ })
	a := s.NewArena("h", trace.Heap, 64)
	addr := a.Alloc(8, 0)
	s.SetRecorder(nil)
	a.WriteU32(0, addr, 1)
	a.ReadU32(0, addr)
	if count != 0 {
		t.Fatalf("muted recorder got %d accesses", count)
	}
	s.SetRecorder(func(trace.Access) { count++ })
	a.ReadU32(0, addr)
	if count != 1 {
		t.Fatal("re-attached recorder missed the access")
	}
}

func TestThreadStacks(t *testing.T) {
	s, accs := collectSpace()
	s0 := s.ThreadStackArena(0, 4096)
	s1 := s.ThreadStackArena(1, 4096)
	if s1.Base()-s0.Base() != StackStride {
		t.Fatalf("stack stride: 0x%x", s1.Base()-s0.Base())
	}
	s0.Touch(0, s0.Base(), 64, trace.Write)
	if (*accs)[0].Seg != trace.Stack {
		t.Fatal("stack access mislabeled")
	}
}

func TestFootprintAccounting(t *testing.T) {
	s, _ := collectSpace()
	h1 := s.NewArena("h1", trace.Heap, 1024)
	h2 := s.NewArena("h2", trace.Heap, 2048)
	h1.Alloc(100, 0)
	h2.Alloc(200, 0)
	if got := s.FootprintBytes(trace.Heap); got != 300 {
		t.Fatalf("heap footprint %d, want 300", got)
	}
	if got := s.FootprintBytes(trace.Shard); got != 0 {
		t.Fatalf("shard footprint %d, want 0", got)
	}
}

func TestWriteReadRaw(t *testing.T) {
	s, accs := collectSpace()
	a := s.NewArena("sh", trace.Shard, 64)
	addr := a.Alloc(8, 0)
	a.WriteRaw(addr, []byte{1, 2, 3})
	got := a.ReadRaw(addr, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatal("raw round trip failed")
	}
	if len(*accs) != 0 {
		t.Fatal("raw access was recorded")
	}
}

func TestBadArenaPanics(t *testing.T) {
	s, _ := collectSpace()
	for i, f := range []func(){
		func() { s.NewArena("bad", trace.Heap, 0) },
		func() {
			a := s.NewArena("h", trace.Heap, 64)
			a.Alloc(-1, 0)
		},
		func() {
			a := s.NewArena("h2", trace.Heap, 64)
			a.Alloc(8, 3)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestArenaOverIsReadOnlyAndRecordsAlike: an arena laid over the caller's
// bytes sits where NewArena would have put it, serves every read and Touch
// with exactly the accesses a NewArena holding a copy of the bytes records,
// accounts Alloc the same — and panics on every write entry point, leaving
// the shared bytes and the recording untouched.
func TestArenaOverIsReadOnlyAndRecordsAlike(t *testing.T) {
	image := make([]byte, 64)
	for i := range image {
		image[i] = byte(i*7 + 1)
	}
	image[40], image[41] = 0xac, 0x02 // uvarint 300
	pristine := append([]byte(nil), image...)

	type read struct{ u8, u32, u64, uv, raw uint64 }
	drive := func(s *Space, a *Arena) read {
		s.NewArena("next", trace.Shard, 8) // the following arena lands after this one
		base := a.Alloc(48, 8)
		if base != a.Base() || a.Alloc(16, 8) != base+48 {
			t.Fatalf("%s: Alloc does not walk the arena", a.name)
		}
		var r read
		r.u8 = uint64(a.ReadU8(1, base+3))
		r.u32 = uint64(a.ReadU32(2, base+8))
		r.u64 = a.ReadU64(3, base+16)
		r.uv, _ = a.ReadUvarint(4, base+40)
		a.Touch(5, base+24, 16, trace.Read)
		r.raw = uint64(a.ReadRaw(base+63, 1)[0])
		return r
	}

	copySpace, copied := collectSpace()
	ca := copySpace.NewArena("copy", trace.Shard, len(image))
	ca.WriteRaw(ca.Base(), image)
	want := drive(copySpace, ca)

	overSpace, over := collectSpace()
	oa := overSpace.NewArenaOver("over", trace.Shard, image)
	if got := drive(overSpace, oa); got != want || want.uv != 300 {
		t.Fatalf("reads over the image = %+v, from a copy %+v", got, want)
	}
	if oa.Base() != ca.Base() || oa.Size() != ca.Size() || oa.Used() != ca.Used() ||
		overSpace.FootprintBytes(trace.Shard) != copySpace.FootprintBytes(trace.Shard) || overSpace.next != copySpace.next {
		t.Fatal("an arena over the image is laid out or accounted differently from a copy")
	}
	if len(*over) != 5 || !slices.Equal(*over, *copied) {
		t.Fatalf("recorded over the image: %v\nfrom a copy: %v", *over, *copied)
	}

	for name, write := range map[string]func(){
		"WriteU32": func() { oa.WriteU32(0, oa.Base(), 1) },
		"WriteU64": func() { oa.WriteU64(0, oa.Base(), 1) },
		"WriteRaw": func() { oa.WriteRaw(oa.Base(), []byte{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an arena over shared bytes did not panic", name)
				}
			}()
			write()
		}()
	}
	if !bytes.Equal(image, pristine) || len(*over) != 5 {
		t.Fatal("a rejected write changed the shared bytes or was recorded")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewArenaOver accepted an empty buffer")
			}
		}()
		overSpace.NewArenaOver("empty", trace.Shard, nil)
	}()
}
