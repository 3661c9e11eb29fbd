package core

import (
	"fmt"
	"slices"

	"scord/internal/config"
)

// Metadata page geometry: a page holds pageEntries consecutive entries
// (4 KiB of Go memory).
const (
	pageShift   = 9
	pageEntries = 1 << pageShift
	pageMask    = pageEntries - 1
)

// page holds pageEntries entries, each stored XORed with InitEntry so
// that a zeroed page reads as freshly (re-)initialized metadata.
type page [pageEntries]Entry

// MetaStore holds the per-word metadata entries under one of the four
// storage policies of the paper:
//
//   - ModeFull4B:  one entry per 4-byte word (200% overhead) — base design
//   - ModeCached:  direct-mapped software cache, one entry per Ratio words,
//     4-bit tag (12.5% overhead at ratio 16) — ScoRD
//   - ModeGran8B:  one entry per 2 words (100% overhead) — Table VII
//   - ModeGran16B: one entry per 4 words (50% overhead)  — Table VII
//
// Entries live in Go memory; their *addresses* are modelled in a reserved
// region starting at metaBase so the gpu package can charge L2/DRAM timing
// for every metadata access.
//
// The Go memory is paged lazily: a page is allocated on its first Update,
// and a page that was never written reads as InitEntry. Reset re-zeroes
// only the pages written since the previous Reset, so building a store
// costs O(1) and a kernel launch costs what the previous kernel touched,
// not the size of the arena.
type MetaStore struct {
	mode     config.DetectorMode
	n        int  // modelled entry count
	grpShift uint // granularity modes: log2(words per entry)
	metaBase uint64

	// pages[i] covers entries [i*pageEntries, (i+1)*pageEntries); a nil or
	// missing page holds only initialized entries. The directory grows to
	// the highest page written.
	pages []*page
	// touched lists the pages written since the last Reset, and free the
	// zeroed pages Reset released for reuse.
	touched []int
	free    []*page
}

// NewMetaStore sizes a store for a device arena of totalWords 4-byte
// words. metaBase is the first byte address of the modelled metadata
// region (placed just above the data arena).
func NewMetaStore(mode config.DetectorMode, totalWords, cacheRatio int, metaBase uint64) *MetaStore {
	s := &MetaStore{mode: mode, metaBase: metaBase}
	switch mode {
	case config.ModeFull4B:
		s.n = totalWords
	case config.ModeCached:
		if cacheRatio <= 0 {
			panic("core: cache ratio must be positive")
		}
		s.n = max(totalWords/cacheRatio, 1)
	case config.ModeGran8B:
		s.grpShift = 1
		s.n = (totalWords + 1) / 2
	case config.ModeGran16B:
		s.grpShift = 2
		s.n = (totalWords + 3) / 4
	default:
		panic(fmt.Sprintf("core: MetaStore for mode %v", mode))
	}
	return s
}

// Reset restores every entry to the (re-)initialization pattern. Called at
// each kernel launch, matching the paper's per-execution detection window.
// Only the pages written since the last Reset need re-zeroing.
func (s *MetaStore) Reset() {
	for _, pi := range s.touched {
		p := s.pages[pi]
		clear(p[:])
		s.pages[pi] = nil
		s.free = append(s.free, p)
	}
	s.touched = s.touched[:0]
}

// NumEntries returns the entry count (tests and overhead accounting).
func (s *MetaStore) NumEntries() int { return s.n }

// OverheadPercent returns metadata bytes as a percentage of the data bytes
// covered (the paper's 200% / 100% / 50% / 12.5% figures).
func (s *MetaStore) OverheadPercent(totalWords int) float64 {
	return float64(s.n*8) / float64(totalWords*4) * 100
}

// slot maps a word index to its entry index and expected tag.
func (s *MetaStore) slot(wordIdx int) (idx int, tag uint8) {
	switch s.mode {
	case config.ModeCached:
		return wordIdx % s.n, uint8(wordIdx/s.n) & 0xF
	default:
		return wordIdx >> s.grpShift, 0
	}
}

// resident returns the page holding entry idx, or nil if that page holds
// only initialized entries or idx is outside the store. It is the
// inlined fast path of Lookup and Update.
func (s *MetaStore) resident(idx int) *page {
	if pi := idx >> pageShift; uint(idx) < uint(s.n) && pi < len(s.pages) {
		return s.pages[pi]
	}
	return nil
}

// checkIdx panics on an entry index outside the store, as indexing a
// dense entry array would.
func (s *MetaStore) checkIdx(idx int) {
	if uint(idx) >= uint(s.n) {
		panic(fmt.Sprintf("core: metadata entry %d outside store of %d entries", idx, s.n))
	}
}

// Lookup fetches the entry covering wordIdx. tagOK is false in cached mode
// when the resident entry belongs to an aliasing word (a software-cache
// miss): the caller must skip detection and overwrite.
func (s *MetaStore) Lookup(wordIdx int) (idx int, e Entry, tag uint8, tagOK bool) {
	idx, tag = s.slot(wordIdx)
	e = InitEntry
	if p := s.resident(idx); p != nil {
		e ^= p[idx&pageMask]
	} else {
		s.checkIdx(idx)
	}
	if s.mode == config.ModeCached {
		// An initialized entry is owned by nobody yet: any tag may claim it.
		tagOK = e.IsInit() || e.Tag() == tag
	} else {
		tagOK = true
	}
	return idx, e, tag, tagOK
}

// Update writes back an entry, allocating its page on first write.
func (s *MetaStore) Update(idx int, e Entry) {
	p := s.resident(idx)
	if p == nil {
		p = s.touch(idx)
	}
	p[idx&pageMask] = e ^ InitEntry
}

// touch installs a zeroed page for entry idx and records it for the next
// Reset.
func (s *MetaStore) touch(idx int) *page {
	s.checkIdx(idx)
	pi := idx >> pageShift
	if pi >= len(s.pages) {
		s.pages = slices.Grow(s.pages, pi+1-len(s.pages))[:pi+1]
	}
	var p *page
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		p = new(page)
	}
	s.pages[pi] = p
	s.touched = append(s.touched, pi)
	return p
}

// AddrOf returns the modelled byte address of entry idx, used to charge
// L2/DRAM timing for metadata traffic.
func (s *MetaStore) AddrOf(idx int) uint64 { return s.metaBase + uint64(idx)*8 }

// GroupBase returns the first word index covered by the entry for
// wordIdx — race records anchor on it so coarse granularities report a
// stable address per group.
func (s *MetaStore) GroupBase(wordIdx int) int {
	if s.grpShift == 0 {
		return wordIdx
	}
	return wordIdx >> s.grpShift << s.grpShift
}
