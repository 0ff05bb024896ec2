package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestReadUnwrittenIsZero(t *testing.T) {
	s := New(1 << 20)
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := s.Read(0x1234, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Error("unwritten memory did not read as zero")
	}
	if s.AllocatedBytes() != 0 {
		t.Errorf("read materialized %d bytes", s.AllocatedBytes())
	}
}

func TestReadAfterWrite(t *testing.T) {
	s := New(1 << 20)
	want := []byte("hybrid memory cube gen2")
	if err := s.Write(0x7FF0, want); err != nil { // spans a page boundary
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := s.Read(0x7FF0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestReadAfterWriteQuick(t *testing.T) {
	s := New(1 << 24)
	f := func(addr uint32, data []byte) bool {
		a := uint64(addr) % (1<<24 - 4096)
		if len(data) > 4096 {
			data = data[:4096]
		}
		if err := s.Write(a, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := s.Read(a, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUint64Accessors(t *testing.T) {
	s := New(1 << 16)
	if err := s.WriteUint64(128, 0xDEADBEEFCAFEF00D); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadUint64(128)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEFCAFEF00D {
		t.Errorf("got %#x", v)
	}
	// Little-endian layout: low byte first.
	b := make([]byte, 1)
	if err := s.Read(128, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x0D {
		t.Errorf("byte 0 = %#x, want 0x0d (little endian)", b[0])
	}
}

func TestBlockAccessors(t *testing.T) {
	s := New(1 << 16)
	blk := Block{Lo: 1, Hi: 0xABCD}
	if err := s.WriteBlock(256, blk); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadBlock(256)
	if err != nil {
		t.Fatal(err)
	}
	if got != blk {
		t.Errorf("got %+v, want %+v", got, blk)
	}
	// Block view must agree with the word view: Lo at base, Hi at base+8.
	lo, _ := s.ReadUint64(256)
	hi, _ := s.ReadUint64(264)
	if lo != blk.Lo || hi != blk.Hi {
		t.Errorf("word view (%#x,%#x) disagrees with block view %+v", lo, hi, blk)
	}
}

func TestBlockAlignment(t *testing.T) {
	s := New(1 << 16)
	if _, err := s.ReadBlock(8); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned read: %v", err)
	}
	if err := s.WriteBlock(24, Block{}); !errors.Is(err, ErrUnaligned) {
		t.Errorf("unaligned write: %v", err)
	}
}

func TestBounds(t *testing.T) {
	s := New(1024)
	if err := s.Write(1020, make([]byte, 8)); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("overlapping write: %v", err)
	}
	if err := s.Read(1024, make([]byte, 1)); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("read at capacity: %v", err)
	}
	if err := s.Write(0, make([]byte, 1024)); err != nil {
		t.Errorf("full-capacity write rejected: %v", err)
	}
	if _, err := s.ReadUint64(1020); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("straddling word read: %v", err)
	}
}

func TestReset(t *testing.T) {
	s := New(1 << 16)
	if err := s.WriteUint64(0, 42); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if s.AllocatedBytes() != 0 {
		t.Error("Reset left pages allocated")
	}
	v, err := s.ReadUint64(0)
	if err != nil || v != 0 {
		t.Errorf("after Reset: %d, %v", v, err)
	}
}

// TestTrimScrubsToPool pins the page-pool contract: Trim drops every
// materialized page, the store stays observationally all-zero, and a
// page recycled through the pool reads as zero on its next
// materialization (releasePage scrubs before pooling).
func TestTrimScrubsToPool(t *testing.T) {
	s := NewSharded(1<<20, 5, 3)
	for addr := uint64(0); addr < 8*PageBytes; addr += 512 {
		if err := s.WriteUint64(addr, ^uint64(0)); err != nil {
			t.Fatal(err)
		}
	}
	s.Trim()
	if got := s.AllocatedBytes(); got != 0 {
		t.Errorf("Trim left %d bytes allocated", got)
	}
	// Re-materialize: every page drawn (likely from the pool just fed)
	// must read back zero outside the bytes written.
	for addr := uint64(0); addr < 8*PageBytes; addr += PageBytes {
		if err := s.WriteUint64(addr, 7); err != nil {
			t.Fatal(err)
		}
		if v, err := s.ReadUint64(addr + 64); err != nil || v != 0 {
			t.Fatalf("recycled page dirty at %#x: %d, %v", addr+64, v, err)
		}
	}
}

// TestZeroKeepsPages pins the simulator-reuse fast path: Zero returns
// the store to all-zeros (observationally identical to Reset) while
// keeping every materialized page allocated for the next run.
func TestZeroKeepsPages(t *testing.T) {
	s := NewSharded(1<<20, 5, 3)
	for addr := uint64(0); addr < 8*PageBytes; addr += 512 {
		if err := s.WriteUint64(addr, addr|1); err != nil {
			t.Fatal(err)
		}
	}
	allocated := s.AllocatedBytes()
	if allocated == 0 {
		t.Fatal("writes materialized no pages")
	}
	s.Zero()
	if got := s.AllocatedBytes(); got != allocated {
		t.Errorf("Zero changed allocation: %d -> %d bytes", allocated, got)
	}
	for addr := uint64(0); addr < 8*PageBytes; addr += 512 {
		if v, err := s.ReadUint64(addr); err != nil || v != 0 {
			t.Fatalf("after Zero: addr %#x reads %d, %v", addr, v, err)
		}
	}
}

func TestSparseAllocation(t *testing.T) {
	s := New(8 << 30) // 8 GB device
	if err := s.WriteUint64(7<<30, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.AllocatedBytes(); got != PageBytes {
		t.Errorf("allocated %d bytes for one word, want one page (%d)", got, PageBytes)
	}
}

func BenchmarkWriteBlock(b *testing.B) {
	s := New(1 << 30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.WriteBlock(uint64(i%4096)*16, Block{Lo: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBlock(b *testing.B) {
	s := New(1 << 30)
	_ = s.WriteBlock(0, Block{Lo: 1, Hi: 2})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadBlock(0); err != nil {
			b.Fatal(err)
		}
	}
}
