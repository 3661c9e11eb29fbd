package core

import (
	"math/rand"
	"testing"

	"scord/internal/config"
)

// denseStore is the reference model of MetaStore: one eagerly
// initialized slice entry per modelled entry, every entry rewritten on
// Reset.
type denseStore struct {
	mode     config.DetectorMode
	entries  []Entry
	grpShift uint
}

func newDenseStore(mode config.DetectorMode, totalWords, ratio int) *denseStore {
	d := &denseStore{mode: mode}
	n := totalWords
	switch mode {
	case config.ModeCached:
		n = max(totalWords/ratio, 1)
	case config.ModeGran8B:
		d.grpShift, n = 1, (totalWords+1)/2
	case config.ModeGran16B:
		d.grpShift, n = 2, (totalWords+3)/4
	}
	d.entries = make([]Entry, n)
	d.reset()
	return d
}

func (d *denseStore) reset() {
	for i := range d.entries {
		d.entries[i] = InitEntry
	}
}

func (d *denseStore) lookup(wordIdx int) (idx int, e Entry, tag uint8, tagOK bool) {
	if d.mode == config.ModeCached {
		n := len(d.entries)
		idx, tag = wordIdx%n, uint8(wordIdx/n)&0xF
	} else {
		idx = wordIdx >> d.grpShift
	}
	e = d.entries[idx]
	tagOK = d.mode != config.ModeCached || e.IsInit() || e.Tag() == tag
	return idx, e, tag, tagOK
}

// TestPagedStoreMatchesDense drives the paged store and the dense model
// through the same random Lookup/Update/Reset sequences in all four
// modes: every lookup result (entry index, entry, tag, tag check), every
// modelled metadata address and every group base must agree. Arena sizes
// end in a partial page, entries are drawn to include InitEntry and
// tag-carrying values so cached-mode aliasing is exercised, and word
// indices cluster so pages are rewritten across resets.
func TestPagedStoreMatchesDense(t *testing.T) {
	modes := []config.DetectorMode{config.ModeFull4B, config.ModeCached, config.ModeGran8B, config.ModeGran16B}
	sizes := []int{1, 5, pageEntries - 1, 3*pageEntries + 37, 40 * pageEntries}
	const metaBase = 1 << 21
	for _, mode := range modes {
		for _, words := range sizes {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				paged := NewMetaStore(mode, words, 16, metaBase)
				dense := newDenseStore(mode, words, 16)
				if paged.NumEntries() != len(dense.entries) {
					t.Fatalf("%v/%d: %d entries, want %d", mode, words, paged.NumEntries(), len(dense.entries))
				}
				hot := rng.Intn(words)
				for step := 0; step < 4000; step++ {
					w := rng.Intn(words)
					if rng.Intn(2) == 0 {
						w = (hot + rng.Intn(64)) % words
					}
					switch r := rng.Intn(100); {
					case r < 2:
						paged.Reset()
						dense.reset()
						continue
					case r < 5:
						hot = rng.Intn(words)
					}
					pi, pe, ptag, pok := paged.Lookup(w)
					di, de, dtag, dok := dense.lookup(w)
					if pi != di || pe != de || ptag != dtag || pok != dok {
						t.Fatalf("%v/%d seed %d step %d: Lookup(%d) = (%d, %#x, %d, %v), dense (%d, %#x, %d, %v)",
							mode, words, seed, step, w, pi, pe, ptag, pok, di, de, dtag, dok)
					}
					if got, want := paged.AddrOf(pi), metaBase+uint64(di)*8; got != want {
						t.Fatalf("%v: AddrOf(%d) = %#x, want %#x", mode, pi, got, want)
					}
					if got, want := paged.GroupBase(w), w>>dense.grpShift<<dense.grpShift; got != want {
						t.Fatalf("%v: GroupBase(%d) = %d, want %d", mode, w, got, want)
					}
					var e Entry
					switch rng.Intn(4) {
					case 0:
						e = InitEntry
					case 1:
						e = InitEntry.WithTag(ptag).WithModified(false).WithBlockID(rng.Intn(128))
					case 2:
						e = Entry(rng.Uint64()).WithTag(uint8(rng.Intn(16)))
					default:
						continue // lookup only
					}
					paged.Update(pi, e)
					dense.entries[di] = e
				}
			}
		}
	}
}

// TestPagedStoreResetCostsWhatWasTouched: a store over a large arena
// allocates nothing until written, and Reset reuses the pages it
// releases, so a steady kernel-after-kernel pattern stops allocating.
func TestPagedStoreResetCostsWhatWasTouched(t *testing.T) {
	s := NewMetaStore(config.ModeFull4B, 1<<28, 16, 0)
	if len(s.pages) != 0 || len(s.touched) != 0 {
		t.Fatal("fresh store holds pages")
	}
	kernel := func() {
		s.Reset()
		for w := 0; w < 4*pageEntries; w += 7 {
			idx, e, _, _ := s.Lookup(w)
			s.Update(idx, e.WithModified(false))
		}
	}
	kernel()
	if got := len(s.touched); got != 4 {
		t.Fatalf("touched %d pages, want 4", got)
	}
	if allocs := testing.AllocsPerRun(10, kernel); allocs != 0 {
		t.Fatalf("steady kernel allocated %.0f times, want 0", allocs)
	}
	s.Reset()
	if _, e, _, _ := s.Lookup(7); e != InitEntry {
		t.Fatalf("entry after Reset = %#x, want InitEntry", e)
	}
}

// TestStoreIndexOutOfRangePanics: like the dense array it replaced, the
// store refuses entry indices past its end, even inside the last
// partially used page.
func TestStoreIndexOutOfRangePanics(t *testing.T) {
	s := NewMetaStore(config.ModeFull4B, 10, 16, 0)
	for _, f := range []func(){
		func() { s.Lookup(10) },
		func() { s.Update(10, InitEntry) },
		func() { s.Update(-1, InitEntry) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range index accepted")
				}
			}()
			f()
		}()
	}
}
