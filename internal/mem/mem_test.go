package mem

import (
	"testing"

	"searchmem/internal/trace"
)

// testDRAM returns a near-tier-only config.
func testDRAM() Config { return Config{} }

// rowAddr builds an address targeting (row, bank, channel) under the
// geometry: 8 KiB rows, 2 channels, 16 banks.
func rowAddr(row, bank, channel uint64) uint64 {
	return row<<18 | bank<<14 | channel<<13
}

func TestAddressMappingStreamingHitsRows(t *testing.T) {
	s := NewSystem(testDRAM())
	// Stream 8 KiB (one row: addresses 0..8191 share channel 0, bank 0,
	// row 0 under the row-interleaved mapping) as 64-byte blocks.
	for off := uint64(0); off < 8<<10; off += 64 {
		s.MemRead(off, trace.Shard)
	}
	st := s.Snapshot()
	if st.Reads != 128 {
		t.Fatalf("reads = %d, want 128", st.Reads)
	}
	// A streaming pattern must be overwhelmingly row hits (first touch of
	// each row is a miss).
	if st.RowHitRate() < 0.9 {
		t.Fatalf("streaming row hit rate = %.3f, want >= 0.9 (hits %d misses %d)",
			st.RowHitRate(), st.RowHits, st.RowMisses)
	}
	if st.FarReads != 0 || st.Pages == 0 {
		t.Fatalf("near-only system saw far reads (%d) or no pages (%d)", st.FarReads, st.Pages)
	}
}

func TestRowConflictTiming(t *testing.T) {
	s := newSystem(testDRAM(), 1) // plain FCFS: every alternation conflicts
	// Alternate two rows of the same bank.
	for i := 0; i < 64; i++ {
		s.MemRead(rowAddr(uint64(i%2), 0, 0), trace.Heap)
	}
	st := s.Snapshot()
	if st.RowHits != 0 {
		t.Fatalf("alternating rows produced %d row hits, want 0", st.RowHits)
	}
	if st.Precharges != st.RowMisses-1 {
		t.Fatalf("precharges = %d, want %d (every miss but the first closes a row)",
			st.Precharges, st.RowMisses-1)
	}
	// Conflict latency: base 30 + precharge 14 + activate 14 + CAS 14 +
	// burst 4 = 76 ns, plus queueing.
	if avg := st.ReadNSSum / float64(st.Reads); avg < 76 {
		t.Fatalf("conflict-bound average read latency %.1f ns, want >= 76", avg)
	}
}

func TestFRFCFSWindowReordersForRowHits(t *testing.T) {
	s := NewSystem(testDRAM())
	// A,B,A,B into one bank's window (windowDepth holds all four), then
	// drain: FR-FCFS-lite serves the second A
	// while row A is open and the second B while row B is open.
	for _, row := range []uint64{0, 1, 0, 1} {
		s.MemRead(rowAddr(row, 0, 0), trace.Heap)
	}
	st := s.Snapshot()
	if st.RowHits != 2 || st.RowMisses != 2 || st.Precharges != 1 {
		t.Fatalf("hits/misses/precharges = %d/%d/%d, want 2/2/1",
			st.RowHits, st.RowMisses, st.Precharges)
	}
}

// farConfig returns a tiered config with a tiny near tier and fast epochs
// for policy tests.
func farConfig(pol PagePolicy, nearPages int64, epochLen int64) Config {
	return Config{Far: &FarConfig{
		NearPages: nearPages,
		Policy:    pol,
		EpochLen:  epochLen,
	}}
}

func TestStaticPlacementFirstTouch(t *testing.T) {
	s := NewSystem(farConfig(PolicyStatic, 4, 1<<20))
	for pg := uint64(0); pg < 16; pg++ {
		s.MemRead(pg<<12, trace.Shard)
	}
	st := s.Snapshot()
	if st.Pages != 16 || st.NearPages != 4 || st.FarPages != 12 {
		t.Fatalf("pages near/far = %d %d/%d, want 16 4/12", st.Pages, st.NearPages, st.FarPages)
	}
	if st.FarReads != 12 {
		t.Fatalf("far reads = %d, want 12", st.FarReads)
	}
	if got := st.FarPageFrac(trace.Shard); got != 0.75 {
		t.Fatalf("shard far page frac = %v, want 0.75", got)
	}
	// Far reads at 150 ns must pull the mean above the near-only band.
	if avg := st.ReadNSSum / float64(st.Reads); avg < 100 {
		t.Fatalf("avg read %.1f ns too low for a 75%%-far system", avg)
	}
	if st.Migrations != 0 {
		t.Fatalf("static policy migrated %d pages", st.Migrations)
	}
}

func TestFreqThresholdPromotesHotPage(t *testing.T) {
	s := NewSystem(farConfig(PolicyFreqThreshold, 1, 32))
	// Page 0 takes the only near slot; page 1 is far and hot, page 2 far
	// and cold. After one epoch, 0 (cold: 1 access, below the bar of
	// promoteEpochHits) demotes and 1 (30 accesses) promotes.
	s.MemRead(0<<12, trace.Heap)
	for i := 0; i < 30; i++ {
		s.MemRead(1<<12, trace.Shard)
	}
	s.MemRead(2<<12, trace.Shard) // 32nd access closes the epoch
	for i := 0; i < 8; i++ {
		s.MemRead(1<<12, trace.Shard) // now near
	}
	st := s.Snapshot()
	if st.Epochs == 0 {
		t.Fatal("no epoch boundary crossed")
	}
	if st.Migrations < 2 {
		t.Fatalf("migrations = %d, want >= 2 (demote page 0, promote page 1)", st.Migrations)
	}
	if st.MigratedBytes != st.Migrations*4096 {
		t.Fatalf("migrated bytes %d != %d pages * 4096", st.MigratedBytes, st.Migrations)
	}
	if st.NearPages != 1 {
		t.Fatalf("near pages = %d, want 1 (capacity)", st.NearPages)
	}
	// The hot page must now be near: its post-epoch reads are near reads.
	post := st.Reads - st.FarReads
	if post < 8 {
		t.Fatalf("near reads = %d, want >= 8 (hot page promoted)", post)
	}
}

func TestLRUEpochDemotesIdlePages(t *testing.T) {
	s := NewSystem(farConfig(PolicyLRUEpoch, 2, 16))
	// Pages 0 and 1 fill the near tier, then go idle while far pages 2 and
	// 3 stay hot across two epochs: the policy must swap them in.
	s.MemRead(0<<12, trace.Heap)
	s.MemRead(1<<12, trace.Heap)
	for i := 0; i < 40; i++ {
		s.MemRead(2<<12, trace.Shard)
		s.MemRead(3<<12, trace.Shard)
	}
	st := s.Snapshot()
	if st.Migrations < 4 {
		t.Fatalf("migrations = %d, want >= 4 (two demotions, two promotions)", st.Migrations)
	}
	if st.NearPages != 2 {
		t.Fatalf("near pages = %d, want 2", st.NearPages)
	}
	if frac := st.FarReadFrac(); frac > 0.5 {
		t.Fatalf("far read frac = %.2f after promotion, want <= 0.5", frac)
	}
}

// replay issues batch against s the way cache.Hierarchy does as a MemSink:
// writes as MemWrite, everything else as MemRead.
func replay(s *System, batch []trace.Access) {
	for _, a := range batch {
		if a.Kind == trace.Write {
			s.MemWrite(a.Addr, a.Seg)
		} else {
			s.MemRead(a.Addr, a.Seg)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	mk := func() []trace.Access {
		// A fixed pseudo-random access mix (LCG, no global rand).
		accs := make([]trace.Access, 4096)
		x := uint64(12345)
		for i := range accs {
			x = x*6364136223846793005 + 1442695040888963407
			seg := trace.Segment(x % 4)
			kind := trace.Read
			if x%5 == 0 {
				kind = trace.Write
			}
			accs[i] = trace.Access{Addr: (x >> 16) % (1 << 26), Size: 64, Seg: seg, Kind: kind}
		}
		return accs
	}
	run := func() Stats {
		cfg := farConfig(PolicyFreqThreshold, 64, 512)
		s := NewSystem(cfg)
		replay(s, mk())
		return s.Snapshot()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same input produced different stats:\n%+v\n%+v", a, b)
	}
}

func TestResetStatsKeepsResidency(t *testing.T) {
	s := NewSystem(farConfig(PolicyStatic, 2, 1<<20))
	for pg := uint64(0); pg < 8; pg++ {
		s.MemRead(pg<<12, trace.Shard)
	}
	s.ResetStats()
	st := s.Snapshot()
	if st.Reads != 0 || st.ReadNSSum != 0 {
		t.Fatalf("counters survived reset: %+v", st)
	}
	if st.Pages != 8 || st.NearPages != 2 {
		t.Fatalf("residency lost on reset: pages %d near %d, want 8/2", st.Pages, st.NearPages)
	}
	// Post-reset accesses to far-resident pages still count as far.
	s.MemRead(7<<12, trace.Shard)
	if got := s.Snapshot().FarReads; got != 1 {
		t.Fatalf("far reads after reset = %d, want 1", got)
	}
}

func TestMigrationGBs(t *testing.T) {
	// 250 transactions at arrivalNS = 10 ns span 2500 ns; 10 KB moved in
	// that time is 4 bytes/ns = 4 GB/s.
	st := Stats{Reads: 200, Writes: 50, MigratedBytes: 10_000}
	if got := st.MigrationGBs(); got != 4 {
		t.Fatalf("migration bandwidth = %v GB/s, want 4", got)
	}
	if got := (Stats{}).MigrationGBs(); got != 0 {
		t.Fatalf("zero-traffic bandwidth = %v, want 0", got)
	}
}

func TestEffectiveReadNSAmortizesMigration(t *testing.T) {
	var st Stats
	st.Reads = 100
	st.ReadNSSum = 5000
	st.MigrationNS = 1000
	if got := st.EffectiveReadNS(65); got != 60 {
		t.Fatalf("effective read = %v, want 60", got)
	}
	if got := (Stats{}).EffectiveReadNS(65); got != 65 {
		t.Fatalf("zero-read fallback = %v, want 65", got)
	}
}

func TestPageTableGrowth(t *testing.T) {
	s := NewSystem(testDRAM())
	// Touch far more pages than the initial table holds to force growth.
	const pages = 200_000
	for pg := uint64(0); pg < pages; pg++ {
		s.MemRead(pg<<12, trace.Shard)
	}
	// Re-touch a spread of pages: every lookup must find its entry.
	for pg := uint64(0); pg < pages; pg += 97 {
		s.MemRead(pg<<12, trace.Shard)
	}
	if got := s.Snapshot().Pages; got != pages {
		t.Fatalf("pages = %d, want %d (growth lost entries)", got, pages)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for name, far := range map[string]FarConfig{
		"without NearPages": {EpochLen: 1024},
		"without EpochLen":  {NearPages: 64},
		"negative EpochLen": {NearPages: 64, EpochLen: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("far tier %s: NewSystem did not panic", name)
				}
			}()
			NewSystem(Config{Far: &far})
		}()
	}
}

func TestCostModel(t *testing.T) {
	// 1 GiB near at $4 and 2 GiB far at $1.50.
	if got := Dollars(1<<30, 2<<30); got != 7 {
		t.Fatalf("Dollars = %v, want 7", got)
	}
	// 4 KiB pages: 2^18 pages are 1 GiB.
	if got := PageDollars(1<<18, 2<<18); got != 7 {
		t.Fatalf("PageDollars = %v, want 7", got)
	}
}
