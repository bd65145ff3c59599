package platform

import (
	"math"
	"testing"

	"searchmem/internal/cache"
)

func TestTableIIAttributes(t *testing.T) {
	p1, p2 := PLT1(), PLT2()
	// Table II rows, verbatim.
	if p1.Sockets != 2 || p1.CoresPerSocket != 18 || p1.SMTWays != 2 || p1.CacheBlock != 64 {
		t.Fatalf("PLT1 shape: %+v", p1)
	}
	if p1.L1I.Size != 32<<10 || p1.L1D.Size != 32<<10 || p1.L2.Size != 256<<10 || p1.L3.Size != 45<<20 {
		t.Fatal("PLT1 cache sizes wrong")
	}
	if p2.Sockets != 2 || p2.CoresPerSocket != 12 || p2.SMTWays != 8 || p2.CacheBlock != 128 {
		t.Fatalf("PLT2 shape: %+v", p2)
	}
	if p2.L1I.Size != 32<<10 || p2.L1D.Size != 64<<10 || p2.L2.Size != 512<<10 || p2.L3.Size != 96<<20 {
		t.Fatal("PLT2 cache sizes wrong")
	}
	if !p1.L3Inclusive {
		t.Fatal("PLT1 L3 must be inclusive")
	}
}

func TestSMTCalibration(t *testing.T) {
	// Figure 2b anchors.
	if got := PLT1().SMT.Speedup(2); math.Abs(got-1.37) > 0.01 {
		t.Fatalf("PLT1 SMT-2 = %v, want 1.37", got)
	}
	p2 := PLT2()
	if got := p2.SMT.Speedup(2); math.Abs(got-1.76) > 0.03 {
		t.Fatalf("PLT2 SMT-2 = %v, want 1.76", got)
	}
	if got := p2.SMT.Speedup(8); math.Abs(got-3.24) > 0.06 {
		t.Fatalf("PLT2 SMT-8 = %v, want 3.24", got)
	}
}

func TestHierarchyConstruction(t *testing.T) {
	p := PLT1()
	cfg := p.Hierarchy(18, 2, 0)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Cores != 18 || cfg.ThreadsPerCore != 2 {
		t.Fatal("shape not propagated")
	}
	// CAT partition: 6 of 20 ways.
	cfg = p.Hierarchy(11, 1, 6)
	if cfg.L3.Assoc != 6 {
		t.Fatal("CAT ways not set")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCATPartitioning is the CAT law on both platforms, whole and scaled: a
// k-way partition's L3 validates, keeps the whole L3's set count with k ways
// and exactly k/Assoc of its bytes, and is partitionable exactly when the
// whole L3 is; nothing else of the hierarchy moves. k = 0 and k = Assoc are
// the whole L3, and k > Assoc panics.
func TestCATPartitioning(t *testing.T) {
	for _, p := range []Platform{PLT1(), PLT2(), PLT1().ScaleCaches(64), PLT2().ScaleCaches(7)} {
		whole := p.Hierarchy(4, 1, 0)
		n := whole.L3.Assoc
		sets := whole.L3.Size / int64(whole.L3.BlockSize) / int64(n)
		for k := 1; k <= n; k++ {
			cfg := p.Hierarchy(4, 1, k)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s, %d of %d ways: %v", p.Name, k, n, err)
			}
			l3 := cfg.L3
			if l3.Assoc != k || l3.Size/int64(l3.BlockSize)/int64(k) != sets || l3.Size*int64(n) != whole.L3.Size*int64(k) {
				t.Errorf("%s, %d of %d ways: L3 of %d B in %d ways, want %d sets and %d/%d of %d B",
					p.Name, k, n, l3.Size, l3.Assoc, sets, k, n, whole.L3.Size)
			}
			if cache.Partitionable(cfg) != cache.Partitionable(whole) {
				t.Errorf("%s, %d of %d ways: Partitionable = %v, whole L3 %v", p.Name, k, n, cache.Partitionable(cfg), cache.Partitionable(whole))
			}
			if cfg.L3 = whole.L3; cfg != whole {
				t.Errorf("%s, %d of %d ways: the partition moved more than the L3", p.Name, k, n)
			}
		}
		if p.Hierarchy(4, 1, n) != whole {
			t.Errorf("%s: all %d ways differ from the unpartitioned L3", p.Name, n)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: %d of %d ways did not panic", p.Name, n+1, n)
				}
			}()
			p.Hierarchy(4, 1, n+1)
		}()
	}
}

func TestHierarchyPanics(t *testing.T) {
	p := PLT1()
	for i, f := range []func(){
		func() { p.Hierarchy(0, 1, 0) },
		func() { p.Hierarchy(100, 1, 0) },
		func() { p.Hierarchy(4, 3, 0) },  // SMT-3 > SMT-2
		func() { p.Hierarchy(4, 1, 30) }, // 30 ways > 20
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

func TestHierarchyWithL3Size(t *testing.T) {
	p := PLT1()
	for _, size := range []int64{4 << 20, 16 << 20, 23 << 20, 1 << 30} {
		cfg := p.HierarchyWithL3Size(4, 1, size)
		if cfg.L3.Size != size {
			t.Fatalf("L3 size %d not applied", size)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestScaleCaches(t *testing.T) {
	p := PLT1().ScaleCaches(64)
	if p.L3.Size != 45<<20/64 {
		t.Fatalf("scaled L3 = %d", p.L3.Size)
	}
	if err := p.L3.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := p.L1I.Validate(); err != nil {
		t.Fatal(err)
	}
	// Extreme scaling still yields valid configs.
	tiny := PLT1().ScaleCaches(1 << 20)
	for _, c := range []interface{ Validate() error }{tinyCfg(tiny)} {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// tinyCfg builds a hierarchy from an extremely scaled platform to check
// end-to-end validity.
func tinyCfg(p Platform) interface{ Validate() error } {
	return p.Hierarchy(2, 1, 0)
}

func TestCoreModelsValidate(t *testing.T) {
	if err := PLT1().Core.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := PLT2().Core.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := PLT1().SMT.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTLBFor(t *testing.T) {
	p := PLT1()
	small := p.TLBFor(p.SmallPage)
	huge := p.TLBFor(p.HugePage)
	if small.PageSize != 4<<10 || huge.PageSize != 2<<20 {
		t.Fatal("page sizes wrong")
	}
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := huge.Validate(); err != nil {
		t.Fatal(err)
	}
	// PLT2 uses 64 KiB / 16 MiB pages.
	p2 := PLT2()
	if p2.SmallPage != 64<<10 || p2.HugePage != 16<<20 {
		t.Fatal("PLT2 page sizes wrong")
	}
}

func TestTotalCores(t *testing.T) {
	if PLT1().TotalCores() != 36 || PLT2().TotalCores() != 24 {
		t.Fatal("core totals wrong")
	}
}

func TestAreaAndPowerConstants(t *testing.T) {
	p := PLT1()
	if p.CoreAreaL3MiB != 4 {
		t.Fatalf("core area %v, paper measures ~4 MiB", p.CoreAreaL3MiB)
	}
	if math.Abs(p.CorePowerFrac-0.0377) > 1e-9 {
		t.Fatalf("core power fraction %v, paper measures 3.77%%", p.CorePowerFrac)
	}
}
