// Package vm is the virtual-memory substrate for virtual buffering: per-node
// physical frame accounting and per-process address spaces with demand
// zero-fill page allocation, the model Glaze needs (the paper's Glaze
// supports no disk paging either — pages are allocated and zero-filled on
// demand, and the frame pool is the scarce resource the overflow-control
// mechanism protects).
package vm

import "fmt"

// PageWords is the page size in 32-bit words (4 KB pages).
const PageWords = 1024

// PageOf returns the virtual page number containing a word address.
func PageOf(addr uint64) uint64 { return addr / PageWords }

// Frames is one node's physical page-frame pool.
type Frames struct {
	total     int
	inUse     int
	highWater int

	// spare holds the storage of unmapped pages for reuse by any space on
	// the node, so steady-state buffering maps pages without allocating.
	// It is host memory only: frame accounting ignores it, and Ensure
	// zero-fills whatever it takes.
	spare [][]uint64
}

// NewFrames returns a pool of n physical frames.
func NewFrames(n int) *Frames {
	return &Frames{total: n}
}

// Total returns the pool size.
func (f *Frames) Total() int { return f.total }

// InUse returns currently allocated frames.
func (f *Frames) InUse() int { return f.inUse }

// Free returns currently available frames.
func (f *Frames) Free() int { return f.total - f.inUse }

// HighWater returns the lifetime maximum of InUse.
func (f *Frames) HighWater() int { return f.highWater }

// Withhold takes up to n free frames out of circulation (fault-injected
// frame starvation) and returns how many it actually took. Withheld frames
// count as in use, so overflow control sees the shrunken pool.
func (f *Frames) Withhold(n int) int {
	free := f.total - f.inUse
	if n > free {
		n = free
	}
	if n < 0 {
		n = 0
	}
	f.inUse += n
	if f.inUse > f.highWater {
		f.highWater = f.inUse
	}
	return n
}

// Unwithhold returns n previously withheld frames to the pool.
func (f *Frames) Unwithhold(n int) {
	if n > f.inUse {
		panic("vm: unwithholding more frames than are in use")
	}
	f.inUse -= n
}

// alloc takes one frame, reporting false when the pool is exhausted.
func (f *Frames) alloc() bool {
	if f.inUse >= f.total {
		return false
	}
	f.inUse++
	if f.inUse > f.highWater {
		f.highWater = f.inUse
	}
	return true
}

// release returns one frame to the pool.
func (f *Frames) release() {
	if f.inUse == 0 {
		panic("vm: releasing frame from empty pool")
	}
	f.inUse--
}

// newPage returns zero-filled page storage, recycled when a spare exists.
func (f *Frames) newPage() []uint64 {
	n := len(f.spare)
	if n == 0 {
		return make([]uint64, PageWords)
	}
	words := f.spare[n-1]
	f.spare[n-1] = nil
	f.spare = f.spare[:n-1]
	clear(words)
	return words
}

// recycle keeps an unmapped page's storage for a later newPage.
func (f *Frames) recycle(words []uint64) { f.spare = append(f.spare, words) }

// Space is a process address space: a page table over the node's frame pool
// with zero-fill-on-demand semantics.
type Space struct {
	frames *Frames
	pages  map[uint64][]uint64 // resident pages' words by virtual page

	denied    uint64 // allocations refused for lack of frames
	highWater int    // max pages simultaneously mapped in this space
}

// NewSpace returns an empty address space over the node's frame pool.
func NewSpace(frames *Frames) *Space {
	return &Space{frames: frames, pages: make(map[uint64][]uint64)}
}

// Mapped reports whether the page containing addr is resident.
func (s *Space) Mapped(addr uint64) bool {
	_, ok := s.pages[PageOf(addr)]
	return ok
}

// PagesMapped returns the number of resident pages.
func (s *Space) PagesMapped() int { return len(s.pages) }

// HighWater returns the lifetime maximum of PagesMapped.
func (s *Space) HighWater() int { return s.highWater }

// Denied returns how many allocations failed for lack of physical frames.
func (s *Space) Denied() uint64 { return s.denied }

// Ensure makes the page containing addr resident. It returns faulted=true
// when a fresh zero-filled page was allocated (the caller charges fault
// service cycles) and ok=false when the node is out of physical frames (the
// caller invokes overflow control; the page is not mapped).
func (s *Space) Ensure(addr uint64) (faulted, ok bool) {
	vp := PageOf(addr)
	if _, resident := s.pages[vp]; resident {
		return false, true
	}
	if !s.frames.alloc() {
		s.denied++
		return true, false
	}
	s.pages[vp] = s.frames.newPage()
	if len(s.pages) > s.highWater {
		s.highWater = len(s.pages)
	}
	return true, true
}

// Read returns the word at addr. Reading an unmapped page is a protocol
// error in this simulator (software always Ensures first) and panics.
func (s *Space) Read(addr uint64) uint64 {
	p, ok := s.pages[PageOf(addr)]
	if !ok {
		panic(fmt.Sprintf("vm: read of unmapped address %#x", addr))
	}
	return p[addr%PageWords]
}

// Write stores a word at addr; the page must be resident.
func (s *Space) Write(addr uint64, v uint64) {
	p, ok := s.pages[PageOf(addr)]
	if !ok {
		panic(fmt.Sprintf("vm: write to unmapped address %#x", addr))
	}
	p[addr%PageWords] = v
}

// Unmap releases the page containing addr back to the frame pool, keeping
// its storage for reuse, and reports whether the page was resident.
// Unmapping a non-resident page is a no-op.
func (s *Space) Unmap(addr uint64) bool {
	words := s.Evict(addr)
	if words == nil {
		return false
	}
	s.frames.recycle(words)
	return true
}

// Evict unmaps the page containing addr and returns its contents, for
// paging the frame out to backing store. Evicting a non-resident page
// returns nil.
func (s *Space) Evict(addr uint64) []uint64 {
	vp := PageOf(addr)
	words, ok := s.pages[vp]
	if !ok {
		return nil
	}
	delete(s.pages, vp)
	s.frames.release()
	return words
}

// Install maps the page containing addr with the given contents, for paging
// back in from backing store. It reports false when no frame is available.
// Installing over a resident page panics: the pager lost track.
func (s *Space) Install(addr uint64, words []uint64) bool {
	vp := PageOf(addr)
	if _, ok := s.pages[vp]; ok {
		panic(fmt.Sprintf("vm: install over resident page %#x", vp))
	}
	if len(words) != PageWords {
		panic("vm: install with wrong page size")
	}
	if !s.frames.alloc() {
		s.denied++
		return false
	}
	s.pages[vp] = words
	if len(s.pages) > s.highWater {
		s.highWater = len(s.pages)
	}
	return true
}

// Release unmaps every page (process teardown, or a drained buffer),
// keeping their storage for reuse.
func (s *Space) Release() {
	for _, words := range s.pages {
		s.frames.release()
		s.frames.recycle(words)
	}
	clear(s.pages)
}
