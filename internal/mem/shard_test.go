package mem

import (
	"math/rand"
	"testing"
)

// TestShardedMatchesUnsharded drives identical random traffic through a
// single-shard store and a vault-geometry sharded store and requires
// byte-identical results from every accessor.
func TestShardedMatchesUnsharded(t *testing.T) {
	const capacity = 1 << 20
	plain := New(capacity)
	// 64-byte granules, 16 shards — the default 4Link-4GB geometry.
	sharded := NewSharded(capacity, 6, 4)
	if got := sharded.Shards(); got != 16 {
		t.Fatalf("Shards() = %d, want 16", got)
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(capacity))
		switch rng.Intn(6) {
		case 0: // bulk write, possibly spanning granules and pages
			n := rng.Intn(300) + 1
			if addr+uint64(n) > capacity {
				addr = capacity - uint64(n)
			}
			p := make([]byte, n)
			rng.Read(p)
			if err := plain.Write(addr, p); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Write(addr, p); err != nil {
				t.Fatal(err)
			}
		case 1: // bulk read
			n := rng.Intn(300) + 1
			if addr+uint64(n) > capacity {
				addr = capacity - uint64(n)
			}
			a := make([]byte, n)
			b := make([]byte, n)
			if err := plain.Read(addr, a); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Read(addr, b); err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Fatalf("Read mismatch at %#x len %d", addr, n)
			}
		case 2: // aligned block write
			addr &^= BlockBytes - 1
			blk := Block{Lo: rng.Uint64(), Hi: rng.Uint64()}
			if err := plain.WriteBlock(addr, blk); err != nil {
				t.Fatal(err)
			}
			if err := sharded.WriteBlock(addr, blk); err != nil {
				t.Fatal(err)
			}
		case 3: // aligned block read
			addr &^= BlockBytes - 1
			a, err := plain.ReadBlock(addr)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sharded.ReadBlock(addr)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("ReadBlock mismatch at %#x: %+v vs %+v", addr, a, b)
			}
		case 4: // word write
			addr &^= 7
			v := rng.Uint64()
			if err := plain.WriteUint64(addr, v); err != nil {
				t.Fatal(err)
			}
			if err := sharded.WriteUint64(addr, v); err != nil {
				t.Fatal(err)
			}
		case 5: // multi-word read/write within one granule
			addr &^= 63 // granule-aligned
			words := rng.Intn(8) + 1
			src := make([]uint64, words)
			for j := range src {
				src[j] = rng.Uint64()
			}
			if err := plain.WriteWords(addr, src, words*8); err != nil {
				t.Fatal(err)
			}
			if err := sharded.WriteWords(addr, src, words*8); err != nil {
				t.Fatal(err)
			}
			a := make([]uint64, words)
			b := make([]uint64, words)
			if err := plain.ReadWords(addr, a); err != nil {
				t.Fatal(err)
			}
			if err := sharded.ReadWords(addr, b); err != nil {
				t.Fatal(err)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("ReadWords mismatch at %#x word %d", addr, j)
				}
			}
		}
	}
}

// TestWriteWordsZeroFill checks that WriteWords zero-fills bytes beyond
// the supplied words, matching the device datapath's padding semantics.
func TestWriteWordsZeroFill(t *testing.T) {
	for _, s := range []*Store{New(1 << 16), NewSharded(1<<16, 6, 4)} {
		// Pre-dirty the range.
		dirty := make([]byte, 64)
		for i := range dirty {
			dirty[i] = 0xAA
		}
		if err := s.Write(0x40, dirty); err != nil {
			t.Fatal(err)
		}
		// Write 64 bytes but supply only 2 words.
		if err := s.WriteWords(0x40, []uint64{1, 2}, 64); err != nil {
			t.Fatal(err)
		}
		got := make([]uint64, 8)
		if err := s.ReadWords(0x40, got); err != nil {
			t.Fatal(err)
		}
		want := []uint64{1, 2, 0, 0, 0, 0, 0, 0}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("word %d = %#x, want %#x", i, got[i], want[i])
			}
		}
	}
}

// TestShardedWordsCrossGranule exercises the ReadWords/WriteWords
// fallback for host-side spans that cross the interleave granule.
func TestShardedWordsCrossGranule(t *testing.T) {
	s := NewSharded(1<<16, 6, 4)
	// 16 words = 128 bytes starting 8 bytes before a granule boundary.
	addr := uint64(64 - 8)
	src := make([]uint64, 16)
	for i := range src {
		src[i] = uint64(i) * 0x0101010101010101
	}
	if err := s.WriteWords(addr, src, len(src)*8); err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, 16)
	if err := s.ReadWords(addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("word %d = %#x, want %#x", i, got[i], src[i])
		}
	}
}

// TestShardedOutOfBounds checks bounds errors survive the sharded paths.
func TestShardedOutOfBounds(t *testing.T) {
	s := NewSharded(1<<16, 6, 4)
	if _, err := s.ReadBlock(1 << 16); err == nil {
		t.Fatal("ReadBlock past capacity: want error")
	}
	if err := s.WriteUint64(1<<16-4, 1); err == nil {
		t.Fatal("WriteUint64 straddling capacity: want error")
	}
	if err := s.ReadWords(1<<16-8, make([]uint64, 2)); err == nil {
		t.Fatal("ReadWords past capacity: want error")
	}
}
