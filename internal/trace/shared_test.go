package trace

import (
	"sync"
	"testing"
)

func TestSharedViewBasics(t *testing.T) {
	sh := newShared([]Access{{Addr: 1}, {Addr: 2}, {Addr: 3}})
	if sh.Len() != 3 {
		t.Fatalf("Len = %d, want 3", sh.Len())
	}
	v := v2addrs(sh.View())
	if len(v) != 3 || v[0] != 1 || v[2] != 3 {
		t.Fatalf("view yielded %v", v)
	}
}

// newShared builds the flat store over accs through its one writer.
func newShared(accs []Access) *Shared {
	w := NewSharedWriter()
	for _, a := range accs {
		w.Add(a)
	}
	return w.Finish()
}

func v2addrs(s BatchStream) []uint64 {
	var out []uint64
	for b := s.NextBatch(); len(b) > 0; b = s.NextBatch() {
		for _, a := range b {
			out = append(out, a.Addr)
		}
	}
	return out
}

func TestSharedViewRewind(t *testing.T) {
	sh := newShared([]Access{{Addr: 1}, {Addr: 2}})
	v := sh.View()
	first := v2addrs(v)
	if len(v.NextBatch()) != 0 {
		t.Fatal("exhausted view yielded an access")
	}
	v.Rewind()
	second := v2addrs(v)
	if len(first) != 2 || len(second) != 2 || first[0] != second[0] || first[1] != second[1] {
		t.Fatalf("rewind changed the stream: %v vs %v", first, second)
	}
}

func TestSharedEmpty(t *testing.T) {
	sh := newShared(nil)
	if sh.Len() != 0 {
		t.Fatalf("empty Len = %d", sh.Len())
	}
	if len(sh.View().NextBatch()) != 0 {
		t.Fatal("empty view yielded an access")
	}
}

// TestSharedConcurrentViews pins the read-only sharing contract: many
// goroutines draining independent views over one Shared buffer observe the
// identical sequence (run under -race in CI).
func TestSharedConcurrentViews(t *testing.T) {
	accs := make([]Access, 1000)
	for i := range accs {
		accs[i] = Access{Addr: uint64(i), Seg: Segment(i % NumSegments)}
	}
	sh := newShared(accs)
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, addr := range v2addrs(sh.View()) {
				if addr != uint64(i) {
					errs[g] = Access{Addr: addr}.String()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Fatalf("goroutine %d observed out-of-order access %s", g, e)
		}
	}
}

// TestSharedChunkBoundaries walks the chunked store across its chunk edges:
// every window is one whole chunk (never longer than DefaultBatchSize, never
// straddling two), the windows concatenate to the input, Rewind repeats them
// exactly, and independent views agree.
func TestSharedChunkBoundaries(t *testing.T) {
	const chunk = DefaultBatchSize
	for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 3*chunk + 7} {
		in := make([]Access, n)
		for i := range in {
			in[i] = Access{Addr: uint64(i) * 8, Size: 8, Seg: Segment(i % NumSegments), Thread: uint8(i % 5)}
		}
		w := NewSharedWriter()
		for i, a := range in {
			if w.Count() != i {
				t.Fatalf("n=%d: Count = %d before access %d", n, w.Count(), i)
			}
			w.Add(a)
		}
		sh := w.Finish()
		if sh.Len() != n || sh.StoredBytes() != int64(n)*16 {
			t.Fatalf("n=%d: Len %d, StoredBytes %d", n, sh.Len(), sh.StoredBytes())
		}
		if want := (n + chunk - 1) / chunk; len(sh.chunks) != want {
			t.Fatalf("n=%d: %d chunks, want %d", n, len(sh.chunks), want)
		}
		v, other := sh.View(), sh.View()
		for pass := 0; pass < 2; pass++ {
			pos := 0
			for i := 0; ; i++ {
				win := v.NextBatch()
				if len(win) == 0 {
					break
				}
				if len(win) > chunk || cap(win) != len(win) || &win[0] != &sh.chunks[i][0] {
					t.Fatalf("n=%d pass %d: window %d (len %d, cap %d) is not chunk %d", n, pass, i, len(win), cap(win), i)
				}
				if pos+len(win) < n && len(win) != chunk {
					t.Fatalf("n=%d pass %d: interior window %d holds %d accesses", n, pass, i, len(win))
				}
				ow := other.NextBatch()
				for j, a := range win {
					if a != in[pos+j] || ow[j] != a {
						t.Fatalf("n=%d pass %d: access %d = %v / %v, want %v", n, pass, pos+j, a, ow[j], in[pos+j])
					}
				}
				pos += len(win)
			}
			if pos != n || len(other.NextBatch()) != 0 {
				t.Fatalf("n=%d pass %d: drained %d accesses", n, pass, pos)
			}
			v.Rewind()
			other.Rewind()
		}
	}
}
