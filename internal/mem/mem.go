// Package mem implements the sparse DRAM backing store for simulated HMC
// devices.
//
// An HMC device presents up to 8 GB of physical storage; allocating that
// eagerly per simulated device would be wasteful, so the store allocates
// fixed-size pages on first write. Reads of never-written memory return
// zeros, matching the simulator's "initialized to a known state"
// assumption (paper §V-A).
//
// The minimum DRAM access granularity in the HMC is 16 bytes (one FLIT of
// data, paper §V-A), so the store provides 16-byte block accessors used by
// the atomic and CMC execution units, alongside arbitrary-span accessors
// used by the read/write datapath.
//
// # Sharding
//
// The device interleaves its address space across vaults at the
// maximum-block-size granularity (internal/addr), and the store is built
// sharded on the same vault bits (NewSharded): one page table per vault.
// Sharding exists for its page layout, not for concurrency. A shard
// stores its slice of the address space *compacted*: the granules
// (interleave blocks) belonging to one vault are packed contiguously
// before being split into pages. A working set that strides across one
// vault's granules therefore fills whole pages — 256 blocks of 64 bytes
// at a 32-vault stride occupy four 4 KiB pages instead of 128 — which is
// what keeps the session server's per-session heap small. Sharding adds
// zero page-storage overhead.
//
// Because the HMC forbids DRAM requests from crossing an interleave-block
// boundary, every datapath access lands in exactly one shard — and,
// since the granule size divides the page size, in exactly one page.
// Host-side bulk preloads that span granules are split transparently.
//
// A Store is not safe for concurrent use: like the device that owns it,
// it belongs to one goroutine at a time. Only the process-wide page pool
// is shared between stores.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// PageBytes is the allocation granularity of the sparse store.
const PageBytes = 4096

// BlockBytes is the minimum DRAM access granularity (one data FLIT).
const BlockBytes = 16

// Errors returned by the store.
var (
	// ErrOutOfBounds reports an access beyond the configured capacity.
	ErrOutOfBounds = errors.New("mem: access out of bounds")
	// ErrUnaligned reports a block access not aligned to 16 bytes.
	ErrUnaligned = errors.New("mem: block access not 16-byte aligned")
)

// pagePool is the process-wide free list of zeroed pages, shared by every
// store. A server hosting thousands of short-lived sessions churns pages
// constantly — one session's released pages become the next session's
// first writes without a round trip through the allocator. Pages are
// scrubbed on the way in (releasePage), so newPage always returns
// all-zero memory and reads cannot distinguish a recycled page from a
// fresh one.
var pagePool = sync.Pool{New: func() any { return new([PageBytes]byte) }}

func newPage() *[PageBytes]byte { return pagePool.Get().(*[PageBytes]byte) }

func releasePage(p *[PageBytes]byte) {
	clear(p[:])
	pagePool.Put(p)
}

// shard is one vault's compacted slice of the address space.
type shard struct {
	pages map[uint64]*[PageBytes]byte
}

// Store is a sparse, lazily allocated memory of fixed capacity.
type Store struct {
	shards []shard
	// granuleBits is the log2 interleave granularity; addresses within
	// one granule share a shard. shardMask selects the shard from the
	// bits directly above the granule.
	granuleBits uint
	shardBits   uint
	shardMask   uint64
	capacity    uint64
}

// New returns an unsharded store of the given capacity in bytes.
func New(capacity uint64) *Store { return NewSharded(capacity, 0, 0) }

// NewSharded returns a store of the given capacity whose page table is
// partitioned into 1<<shardBits shards selected by address bits
// [granuleBits, granuleBits+shardBits). Matching these to the device's
// offset and vault bits gives each vault its own compacted page table.
// granuleBits and shardBits of zero degrade to a single shard. It
// panics on geometry that cannot address the capacity, which always
// indicates a configuration error upstream.
func NewSharded(capacity uint64, granuleBits, shardBits int) *Store {
	if granuleBits < 0 || shardBits < 0 ||
		(shardBits > 0 && granuleBits+shardBits > 62) ||
		(shardBits > 0 && BlockBytes > 1<<granuleBits) {
		panic(fmt.Sprintf("mem: invalid shard geometry granuleBits=%d shardBits=%d", granuleBits, shardBits))
	}
	// Shard page tables are created lazily on first write (reads of a nil
	// map are legal and return the zero value), so a freshly built store
	// costs one allocation regardless of shard count.
	return &Store{
		shards:      make([]shard, 1<<shardBits),
		granuleBits: uint(granuleBits),
		shardBits:   uint(shardBits),
		shardMask:   1<<shardBits - 1,
		capacity:    capacity,
	}
}

// Capacity returns the configured capacity in bytes.
func (s *Store) Capacity() uint64 { return s.capacity }

// Shards returns the number of page-table shards.
func (s *Store) Shards() int { return len(s.shards) }

// AllocatedBytes returns the number of bytes of page storage currently
// materialized.
func (s *Store) AllocatedBytes() uint64 {
	var n uint64
	for i := range s.shards {
		n += uint64(len(s.shards[i].pages)) * PageBytes
	}
	return n
}

func (s *Store) check(addr uint64, n int) error {
	if n < 0 || addr >= s.capacity || uint64(n) > s.capacity-addr {
		return fmt.Errorf("%w: addr %#x len %d capacity %#x", ErrOutOfBounds, addr, n, s.capacity)
	}
	return nil
}

// locate maps a global address to its shard and the address within the
// shard's compacted local space. Addresses in the same granule always
// share (shard, local page).
func (s *Store) locate(addr uint64) (*shard, uint64) {
	if s.shardMask == 0 {
		return &s.shards[0], addr
	}
	sid := addr >> s.granuleBits & s.shardMask
	local := addr>>(s.granuleBits+s.shardBits)<<s.granuleBits | addr&(1<<s.granuleBits-1)
	return &s.shards[sid], local
}

// granuleSpan returns how many of the n bytes at addr fall inside the
// address's granule (the whole span for an unsharded store).
func (s *Store) granuleSpan(addr uint64, n int) int {
	if s.shardMask == 0 {
		return n
	}
	if left := int(uint64(1)<<s.granuleBits - addr&(1<<s.granuleBits-1)); left < n {
		return left
	}
	return n
}

// read copies n bytes at local into p.
func (sh *shard) read(local uint64, p []byte) {
	for done := 0; done < len(p); {
		pageIdx := (local + uint64(done)) / PageBytes
		off := int((local + uint64(done)) % PageBytes)
		n := min(len(p)-done, PageBytes-off)
		if page, ok := sh.pages[pageIdx]; ok {
			copy(p[done:done+n], page[off:off+n])
		} else {
			clear(p[done : done+n])
		}
		done += n
	}
}

// write copies p into the shard at local, materializing pages as needed.
func (sh *shard) write(local uint64, p []byte) {
	for done := 0; done < len(p); {
		pageIdx := (local + uint64(done)) / PageBytes
		off := int((local + uint64(done)) % PageBytes)
		n := min(len(p)-done, PageBytes-off)
		page, ok := sh.pages[pageIdx]
		if !ok {
			if sh.pages == nil {
				sh.pages = make(map[uint64]*[PageBytes]byte)
			}
			page = newPage()
			sh.pages[pageIdx] = page
		}
		copy(page[off:off+n], p[done:done+n])
		done += n
	}
}

// page returns the materialized page containing local, or nil.
func (sh *shard) page(local uint64) *[PageBytes]byte {
	return sh.pages[local/PageBytes]
}

// ensurePage returns the page containing local, materializing it if
// needed.
func (sh *shard) ensurePage(local uint64) *[PageBytes]byte {
	idx := local / PageBytes
	page, ok := sh.pages[idx]
	if !ok {
		if sh.pages == nil {
			sh.pages = make(map[uint64]*[PageBytes]byte)
		}
		page = newPage()
		sh.pages[idx] = page
	}
	return page
}

// Read copies len(p) bytes starting at addr into p. Unwritten memory
// reads as zero.
func (s *Store) Read(addr uint64, p []byte) error {
	if err := s.check(addr, len(p)); err != nil {
		return err
	}
	for done := 0; done < len(p); {
		a := addr + uint64(done)
		n := s.granuleSpan(a, len(p)-done)
		sh, local := s.locate(a)
		sh.read(local, p[done:done+n])
		done += n
	}
	return nil
}

// Write copies p into the store starting at addr, materializing pages as
// needed.
func (s *Store) Write(addr uint64, p []byte) error {
	if err := s.check(addr, len(p)); err != nil {
		return err
	}
	for done := 0; done < len(p); {
		a := addr + uint64(done)
		n := s.granuleSpan(a, len(p)-done)
		sh, local := s.locate(a)
		sh.write(local, p[done:done+n])
		done += n
	}
	return nil
}

// ReadWords reads len(dst)*8 bytes at addr directly into little-endian
// 64-bit payload words — the zero-copy read datapath: no intermediate
// byte buffer, and a single page access when the span stays inside one
// granule (every spec-legal DRAM request does).
func (s *Store) ReadWords(addr uint64, dst []uint64) error {
	n := len(dst) * 8
	if err := s.check(addr, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	sh, local := s.locate(addr)
	if s.granuleSpan(addr, n) == n && int(local%PageBytes)+n <= PageBytes {
		if page := sh.page(local); page != nil {
			off := int(local % PageBytes)
			for i := range dst {
				dst[i] = binary.LittleEndian.Uint64(page[off+8*i:])
			}
		} else {
			clear(dst)
		}
		return nil
	}
	// Cross-granule span (host-side use only): fall back to the general
	// byte path one word at a time.
	var b [8]byte
	for i := range dst {
		if err := s.Read(addr+uint64(8*i), b[:]); err != nil {
			return err
		}
		dst[i] = binary.LittleEndian.Uint64(b[:])
	}
	return nil
}

// WriteWords writes n bytes at addr from little-endian payload words,
// zero-filling bytes beyond the supplied words — the zero-copy write
// datapath mirroring ReadWords. n must be a multiple of 8.
func (s *Store) WriteWords(addr uint64, src []uint64, n int) error {
	if err := s.check(addr, n); err != nil {
		return err
	}
	if n%8 != 0 {
		return fmt.Errorf("%w: WriteWords length %d not word-aligned", ErrUnaligned, n)
	}
	if n == 0 {
		return nil
	}
	words := n / 8
	sh, local := s.locate(addr)
	if s.granuleSpan(addr, n) == n && int(local%PageBytes)+n <= PageBytes {
		page := sh.ensurePage(local)
		off := int(local % PageBytes)
		for i := 0; i < words; i++ {
			var v uint64
			if i < len(src) {
				v = src[i]
			}
			binary.LittleEndian.PutUint64(page[off+8*i:], v)
		}
		return nil
	}
	var b [8]byte
	for i := 0; i < words; i++ {
		var v uint64
		if i < len(src) {
			v = src[i]
		}
		binary.LittleEndian.PutUint64(b[:], v)
		if err := s.Write(addr+uint64(8*i), b[:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadUint64 reads a little-endian 64-bit word at addr.
func (s *Store) ReadUint64(addr uint64) (uint64, error) {
	if err := s.check(addr, 8); err != nil {
		return 0, err
	}
	sh, local := s.locate(addr)
	if off := int(local % PageBytes); s.granuleSpan(addr, 8) == 8 && off+8 <= PageBytes {
		var v uint64
		if page := sh.page(local); page != nil {
			v = binary.LittleEndian.Uint64(page[off:])
		}
		return v, nil
	}
	var b [8]byte
	if err := s.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteUint64 writes a little-endian 64-bit word at addr.
func (s *Store) WriteUint64(addr, v uint64) error {
	if err := s.check(addr, 8); err != nil {
		return err
	}
	sh, local := s.locate(addr)
	if off := int(local % PageBytes); s.granuleSpan(addr, 8) == 8 && off+8 <= PageBytes {
		binary.LittleEndian.PutUint64(sh.ensurePage(local)[off:], v)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return s.Write(addr, b[:])
}

// Block is one 16-byte DRAM block viewed as two little-endian 64-bit
// words; Lo holds bytes [7:0] (bits [63:0] in the paper's mutex layout)
// and Hi holds bytes [15:8] (bits [127:64]).
type Block struct {
	Lo, Hi uint64
}

// ReadBlock reads the aligned 16-byte block at addr directly from its
// page — no intermediate byte-slice marshaling.
func (s *Store) ReadBlock(addr uint64) (Block, error) {
	if addr%BlockBytes != 0 {
		return Block{}, fmt.Errorf("%w: addr %#x", ErrUnaligned, addr)
	}
	if err := s.check(addr, BlockBytes); err != nil {
		return Block{}, err
	}
	sh, local := s.locate(addr)
	off := int(local % PageBytes)
	var blk Block
	if page := sh.page(local); page != nil {
		blk.Lo = binary.LittleEndian.Uint64(page[off:])
		blk.Hi = binary.LittleEndian.Uint64(page[off+8:])
	}
	return blk, nil
}

// WriteBlock writes the aligned 16-byte block at addr directly into its
// page.
func (s *Store) WriteBlock(addr uint64, blk Block) error {
	if addr%BlockBytes != 0 {
		return fmt.Errorf("%w: addr %#x", ErrUnaligned, addr)
	}
	if err := s.check(addr, BlockBytes); err != nil {
		return err
	}
	sh, local := s.locate(addr)
	off := int(local % PageBytes)
	page := sh.ensurePage(local)
	binary.LittleEndian.PutUint64(page[off:], blk.Lo)
	binary.LittleEndian.PutUint64(page[off+8:], blk.Hi)
	return nil
}

// Reset returns the store to all-zeros, scrubbing every materialized
// page back to the shared page pool. The shard page tables survive with
// their entries cleared, so a reused store re-materializes into warm map
// buckets. Use Zero to return to all-zeros while keeping the pages
// materialized (the simulator-reuse fast path), or Trim to additionally
// drop the page tables themselves.
func (s *Store) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		for idx, page := range sh.pages {
			releasePage(page)
			delete(sh.pages, idx)
		}
	}
}

// Trim releases every materialized page to the shared page pool and
// drops the shard page tables, shrinking the store to its freshly built
// footprint. It is the idle-session heap diet: a pooled simulator that
// may sit unused holds no page storage, and the pages it scrubbed back
// seed the next session's first writes. Trim leaves the store all-zero,
// observationally identical to Reset.
func (s *Store) Trim() {
	for i := range s.shards {
		sh := &s.shards[i]
		for _, page := range sh.pages {
			releasePage(page)
		}
		sh.pages = nil
	}
}

// Zero returns the store to all-zeros without dropping materialized
// pages: each page is block-cleared in place, so a reused simulator's
// next run rewrites warm pages instead of re-materializing them (page
// and page-table allocations are the bulk of a run's store cost). Reads
// cannot distinguish a zeroed page from an unmaterialized one, so Zero
// and Reset are observationally identical.
func (s *Store) Zero() {
	for i := range s.shards {
		sh := &s.shards[i]
		for _, page := range sh.pages {
			clear(page[:])
		}
	}
}
