package simio

import (
	"bytes"
	"testing"
	"time"

	"pdcquery/internal/vclock"
)

func testModel() Model {
	m := DefaultModel()
	m.Streams = 1
	return m
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := New(testModel())
	a := vclock.NewAccount()
	data := []byte("hello, lustre")
	s.Write(a, "obj/0", PFS, data)
	got, err := s.ReadAll(a, "obj/0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q, want %q", got, data)
	}
	// Write copied: mutating the original must not affect the store.
	data[0] = 'X'
	got, _ = s.ReadAll(nil, "obj/0")
	if got[0] != 'h' {
		t.Error("Write did not copy its input")
	}
}

func TestReadPartial(t *testing.T) {
	s := New(testModel())
	s.Write(nil, "e", Memory, []byte("0123456789"))
	got, err := s.Read(nil, "e", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "3456" {
		t.Errorf("partial read = %q, want 3456", got)
	}
}

func TestReadErrors(t *testing.T) {
	s := New(testModel())
	s.Write(nil, "e", Memory, make([]byte, 10))
	if _, err := s.Read(nil, "missing", 0, 1); err == nil {
		t.Error("read of missing extent succeeded")
	}
	if _, err := s.Read(nil, "e", 8, 4); err == nil {
		t.Error("out-of-bounds read succeeded")
	}
	if _, err := s.Read(nil, "e", -1, 2); err == nil {
		t.Error("negative offset read succeeded")
	}
	if _, err := s.ReadAll(nil, "missing"); err == nil {
		t.Error("ReadAll of missing extent succeeded")
	}
}

func TestCostLatencyPlusBandwidth(t *testing.T) {
	m := testModel()
	m.Tiers[PFS] = TierParams{ReadLatency: time.Millisecond, ReadBW: 1e9}
	m.BWFactor = 1
	s := New(m)
	s.Write(nil, "e", PFS, make([]byte, 1e6))
	a := vclock.NewAccount()
	if _, err := s.ReadAll(a, "e"); err != nil {
		t.Fatal(err)
	}
	// 1ms latency + 1e6 bytes / 1e9 B/s = 1ms transfer = 2ms total.
	if got := a.Cost().Part(vclock.Storage); got != 2*time.Millisecond {
		t.Errorf("read cost = %v, want 2ms", got)
	}
	if a.Counter("read.ops") != 1 || a.Counter("read.bytes") != 1e6 {
		t.Errorf("counters = %s", a.Snapshot())
	}
}

func TestContentionCapsBandwidth(t *testing.T) {
	m := testModel()
	m.Tiers[PFS] = TierParams{ReadBW: 10e9, SharedBW: 20e9}
	s := New(m)
	s.Write(nil, "e", PFS, make([]byte, 1e6))

	read := func(streams int) time.Duration {
		s.SetStreams(streams)
		a := vclock.NewAccount()
		if _, err := s.ReadAll(a, "e"); err != nil {
			t.Fatal(err)
		}
		return a.Cost().Total()
	}
	t1 := read(1)   // 10 GB/s per stream
	t64 := read(64) // shared 20/64 GB/s per stream
	if t64 <= t1 {
		t.Errorf("contention not applied: 1 stream %v vs 64 streams %v", t1, t64)
	}
	// 64 streams: effective bw = 20e9/64 = 0.3125e9 -> 32x slower than 10e9.
	if ratio := float64(t64) / float64(t1); ratio < 30 || ratio > 34 {
		t.Errorf("contention ratio = %.1f, want ~32", ratio)
	}
}

func TestBWFactorSlowsReads(t *testing.T) {
	m := testModel()
	m.Tiers[PFS] = TierParams{ReadBW: 1e9}
	s := New(m)
	s.Write(nil, "e", PFS, make([]byte, 1e6))
	a1 := vclock.NewAccount()
	s.ReadAll(a1, "e")

	m.BWFactor = 0.5
	s2 := New(m)
	s2.Write(nil, "e", PFS, make([]byte, 1e6))
	a2 := vclock.NewAccount()
	s2.ReadAll(a2, "e")

	if a2.Cost().Total() <= a1.Cost().Total() {
		t.Errorf("BWFactor 0.5 not slower: %v vs %v", a2.Cost().Total(), a1.Cost().Total())
	}
}

func TestReadRangesAggregation(t *testing.T) {
	m := testModel()
	m.Tiers[PFS] = TierParams{ReadLatency: time.Millisecond, ReadBW: 1e9}
	m.AggGap = 100
	s := New(m)
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	s.Write(nil, "e", PFS, data)

	// Three ranges: first two 50 bytes apart (merge), third 500 away (no merge).
	ranges := []Range{{0, 100}, {150, 100}, {800, 100}}
	a := vclock.NewAccount()
	out, err := s.ReadRanges(nil, a, "e", ranges)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranges {
		if !bytes.Equal(out[i], data[r.Off:r.Off+r.Len]) {
			t.Errorf("range %d content mismatch", i)
		}
	}
	if got := a.Counter("read.ops"); got != 2 {
		t.Errorf("aggregated ops = %d, want 2", got)
	}
	// merged bytes: [0,250) = 250 plus [800,900) = 100 -> 350.
	if got := a.Counter("read.bytes"); got != 350 {
		t.Errorf("aggregated bytes = %d, want 350", got)
	}
}

func TestReadRangesNoAggregation(t *testing.T) {
	m := testModel()
	m.Aggregate = false
	s := New(m)
	s.Write(nil, "e", PFS, make([]byte, 1000))
	a := vclock.NewAccount()
	if _, err := s.ReadRanges(nil, a, "e", []Range{{0, 10}, {10, 10}, {20, 10}}); err != nil {
		t.Fatal(err)
	}
	// Even adjacent ranges stay separate ops without aggregation.
	if got := a.Counter("read.ops"); got != 3 {
		t.Errorf("ops = %d, want 3", got)
	}
	if got := a.Counter("read.bytes"); got != 30 {
		t.Errorf("bytes = %d, want 30", got)
	}
}

func TestReadRangesUnsortedInput(t *testing.T) {
	s := New(testModel())
	data := []byte("abcdefghij")
	s.Write(nil, "e", Memory, data)
	out, err := s.ReadRanges(nil, nil, "e", []Range{{8, 2}, {0, 2}, {4, 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"ij", "ab", "ef"}
	for i := range want {
		if string(out[i]) != want[i] {
			t.Errorf("out[%d] = %q, want %q", i, out[i], want[i])
		}
	}
}

func TestReadRangesOutOfBounds(t *testing.T) {
	s := New(testModel())
	s.Write(nil, "e", Memory, make([]byte, 10))
	if _, err := s.ReadRanges(nil, nil, "e", []Range{{5, 10}}); err == nil {
		t.Error("out-of-bounds range read succeeded")
	}
	if _, err := s.ReadRanges(nil, nil, "missing", nil); err == nil {
		t.Error("missing extent ReadRanges succeeded")
	}
}

func TestMigrate(t *testing.T) {
	s := New(testModel())
	a := vclock.NewAccount()
	s.Write(nil, "e", PFS, []byte("data"))
	if err := s.Migrate(a, "e", Memory); err != nil {
		t.Fatal(err)
	}
	tier, err := s.TierOf("e")
	if err != nil {
		t.Fatal(err)
	}
	if tier != Memory {
		t.Errorf("tier after migrate = %v, want memory", tier)
	}
	if a.Counter("migrate.ops") != 1 {
		t.Errorf("migrate ops = %d", a.Counter("migrate.ops"))
	}
	// Same-tier migrate is free.
	a2 := vclock.NewAccount()
	if err := s.Migrate(a2, "e", Memory); err != nil {
		t.Fatal(err)
	}
	if a2.Cost().Total() != 0 {
		t.Errorf("same-tier migrate charged %v", a2.Cost().Total())
	}
	if err := s.Migrate(nil, "missing", Memory); err == nil {
		t.Error("migrate of missing extent succeeded")
	}
}

func TestDeleteExistsKeys(t *testing.T) {
	s := New(testModel())
	s.Write(nil, "b", Memory, []byte("1"))
	s.Write(nil, "a", PFS, []byte("22"))
	if !s.Exists("a") || !s.Exists("b") {
		t.Error("extents missing after write")
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("keys = %v", keys)
	}
	if got := s.TotalBytes(-1); got != 3 {
		t.Errorf("total bytes = %d, want 3", got)
	}
	if got := s.TotalBytes(PFS); got != 2 {
		t.Errorf("pfs bytes = %d, want 2", got)
	}
	s.Delete("a")
	s.Delete("a") // no-op
	if s.Exists("a") {
		t.Error("extent a still exists after delete")
	}
}

func TestWriteOwnedNoCopy(t *testing.T) {
	s := New(testModel())
	data := []byte("owned")
	s.WriteOwned(nil, "e", Memory, data)
	got, _ := s.ReadAll(nil, "e")
	if &got[0] != &data[0] {
		t.Error("WriteOwned copied the buffer")
	}
}

func TestTierString(t *testing.T) {
	if Memory.String() != "memory" || PFS.String() != "pfs" || BurstBuffer.String() != "burst-buffer" {
		t.Error("tier names wrong")
	}
	if Tier(9).String() == "" {
		t.Error("unknown tier name empty")
	}
}

func TestMemoryTierMuchFasterThanPFS(t *testing.T) {
	s := New(testModel())
	s.Write(nil, "mem", Memory, make([]byte, 1<<20))
	s.Write(nil, "pfs", PFS, make([]byte, 1<<20))
	am, ap := vclock.NewAccount(), vclock.NewAccount()
	s.ReadAll(am, "mem")
	s.ReadAll(ap, "pfs")
	if am.Cost().Total()*10 > ap.Cost().Total() {
		t.Errorf("memory read %v not >>10x faster than pfs %v", am.Cost().Total(), ap.Cost().Total())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New(testModel())
	s.Write(nil, "a", PFS, []byte("alpha"))
	s.Write(nil, "b/nested", Memory, make([]byte, 10000))
	s.Write(nil, "c", BurstBuffer, nil)

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New(testModel())
	s2.Write(nil, "stale", PFS, []byte("gone")) // replaced by ReadFrom
	if _, err := s2.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s2.Exists("stale") {
		t.Error("ReadFrom kept pre-existing extents")
	}
	keys := s2.Keys()
	if len(keys) != 3 {
		t.Fatalf("restored keys = %v", keys)
	}
	got, err := s2.ReadAll(nil, "a")
	if err != nil || string(got) != "alpha" {
		t.Errorf("restored a = %q, %v", got, err)
	}
	tier, _ := s2.TierOf("b/nested")
	if tier != Memory {
		t.Errorf("restored tier = %v", tier)
	}
	if sz, _ := s2.Size("c"); sz != 0 {
		t.Errorf("restored empty extent size = %d", sz)
	}
}

func TestSnapshotErrors(t *testing.T) {
	s := New(testModel())
	if _, err := s.ReadFrom(bytes.NewReader(nil)); err == nil {
		t.Error("empty snapshot accepted")
	}
	bad := make([]byte, 16)
	if _, err := s.ReadFrom(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Valid snapshot, truncated mid-extent.
	src := New(testModel())
	src.Write(nil, "x", PFS, make([]byte, 100))
	var buf bytes.Buffer
	src.WriteTo(&buf)
	full := buf.Bytes()
	if _, err := s.ReadFrom(bytes.NewReader(full[:len(full)-10])); err == nil {
		t.Error("truncated snapshot accepted")
	}
}
