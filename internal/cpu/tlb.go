package cpu

import (
	"fmt"

	"searchmem/internal/cache"
	"searchmem/internal/trace"
)

// TLBConfig describes a two-level TLB for one page size. The huge-page
// experiment (Figure 2c) compares 4 KiB against 2 MiB pages on the
// PLT1-like platform and 64 KiB against 16 MiB pages on the PLT2-like one.
type TLBConfig struct {
	// PageSize in bytes; must be a power of two.
	PageSize int
	// L1Entries/L1Assoc describe the first-level TLB.
	L1Entries, L1Assoc int
	// L2Entries/L2Assoc describe the second-level (shared) TLB.
	L2Entries, L2Assoc int
	// WalkLatencyNS is the page-table walk cost on a full TLB miss.
	WalkLatencyNS float64
	// L2LatencyNS is the extra cost of an L1-miss/L2-hit translation.
	L2LatencyNS float64
}

// Validate reports whether the TLB configuration is consistent.
func (c TLBConfig) Validate() error {
	if c.PageSize <= 0 || c.PageSize&(c.PageSize-1) != 0 {
		return fmt.Errorf("cpu: TLB page size %d must be a positive power of two", c.PageSize)
	}
	if c.L1Entries <= 0 || c.L2Entries <= 0 {
		return fmt.Errorf("cpu: TLB entry counts must be positive")
	}
	if c.L1Assoc <= 0 || c.L1Assoc > c.L1Entries || c.L1Entries%c.L1Assoc != 0 {
		return fmt.Errorf("cpu: bad L1 TLB associativity %d for %d entries", c.L1Assoc, c.L1Entries)
	}
	if c.L2Assoc <= 0 || c.L2Assoc > c.L2Entries || c.L2Entries%c.L2Assoc != 0 {
		return fmt.Errorf("cpu: bad L2 TLB associativity %d for %d entries", c.L2Assoc, c.L2Entries)
	}
	return nil
}

// TLB is a functional two-level translation lookaside buffer. Entries are
// modeled with the cache package: one "block" per page.
type TLB struct {
	cfg TLBConfig
	l1  *cache.Cache
	l2  *cache.Cache

	// L1Hits, L2Hits, and Walks partition all translations.
	L1Hits, L2Hits, Walks int64
}

// NewTLB builds a TLB; it panics on an invalid configuration.
func NewTLB(cfg TLBConfig) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	mk := func(entries, assoc int, name string) *cache.Cache {
		return cache.New(cache.Config{
			Name:      name,
			Size:      int64(entries) * int64(cfg.PageSize),
			BlockSize: cfg.PageSize,
			Assoc:     assoc,
		})
	}
	return &TLB{
		cfg: cfg,
		l1:  mk(cfg.L1Entries, cfg.L1Assoc, "TLB-L1"),
		l2:  mk(cfg.L2Entries, cfg.L2Assoc, "TLB-L2"),
	}
}

// Translate looks up vaddr and returns the translation latency in
// nanoseconds (0 for an L1 hit).
func (t *TLB) Translate(vaddr uint64) float64 {
	page := t.l1.BlockAddr(vaddr)
	if t.l1.Access(page, trace.Heap, trace.Read) {
		t.L1Hits++
		return 0
	}
	if t.l2.Access(page, trace.Heap, trace.Read) {
		t.L2Hits++
		t.l1.Fill(page, trace.Heap, false)
		return t.cfg.L2LatencyNS
	}
	t.Walks++
	t.l2.Fill(page, trace.Heap, false)
	t.l1.Fill(page, trace.Heap, false)
	return t.cfg.WalkLatencyNS
}

// Translations returns the total number of lookups.
func (t *TLB) Translations() int64 { return t.L1Hits + t.L2Hits + t.Walks }

// AvgLatencyNS returns the mean translation overhead per lookup.
func (t *TLB) AvgLatencyNS() float64 {
	n := t.Translations()
	if n == 0 {
		return 0
	}
	total := float64(t.L2Hits)*t.cfg.L2LatencyNS + float64(t.Walks)*t.cfg.WalkLatencyNS
	return total / float64(n)
}
