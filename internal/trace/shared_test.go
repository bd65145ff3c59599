package trace

import (
	"sync"
	"testing"
)

func TestSharedViewBasics(t *testing.T) {
	sh := NewShared([]Access{{Addr: 1}, {Addr: 2}, {Addr: 3}})
	if sh.Len() != 3 {
		t.Fatalf("Len = %d, want 3", sh.Len())
	}
	v := v2addrs(sh.View())
	if len(v) != 3 || v[0] != 1 || v[2] != 3 {
		t.Fatalf("view yielded %v", v)
	}
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
	sh := NewShared([]Access{{Addr: 1}, {Addr: 2}})
	v := sh.View()
	if v.Len() != 2 {
		t.Fatalf("view Len = %d, want 2", v.Len())
	}
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
	sh := NewShared(nil)
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
	sh := NewShared(accs)
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
