package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndNaming(t *testing.T) {
	m := New(1 << 16)
	a := m.Alloc("first", 10)
	b := m.Alloc("second", 200)
	if a%128 != 0 || b%128 != 0 {
		t.Fatalf("allocations not 128-byte aligned: %#x %#x", a, b)
	}
	if al, ok := m.Locate(b + 4); !ok || al.Name != "second" {
		t.Fatalf("Locate(second+4) = %+v, %v", al, ok)
	}
	if _, ok := m.Locate(Addr(1 << 15)); ok {
		t.Fatal("Locate matched unallocated address")
	}
	if s := m.Describe(b + 8); s != "second+0x8" {
		t.Fatalf("Describe = %q", s)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(4096)
	a := m.Alloc("x", 64)
	m.Write(a+8, 0xdeadbeef)
	if v := m.Read(a + 8); v != 0xdeadbeef {
		t.Fatalf("read %#x", v)
	}
}

func TestHostHelpers(t *testing.T) {
	m := New(4096)
	a := m.AllocWords("arr", 16)
	m.HostWrite(a, []uint32{1, 2, 3, 4})
	if got := m.HostRead(a, 4); got[0] != 1 || got[3] != 4 {
		t.Fatalf("HostRead = %v", got)
	}
	m.HostFill(a, 16, 9)
	if m.Read(a+60) != 9 {
		t.Fatal("HostFill did not reach last word")
	}
}

func TestResetClears(t *testing.T) {
	m := New(4096)
	a := m.Alloc("x", 8)
	m.Write(a, 5)
	m.Reset()
	if m.Used() != 0 || m.Read(0) != 0 {
		t.Fatal("Reset did not clear arena")
	}
	if _, ok := m.Locate(a); ok {
		t.Fatal("allocation survived Reset")
	}
}

func TestOutOfMemoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	m := New(256)
	m.Alloc("big", 512)
}

// TestLayoutOnlyUntilDataAccess: an arena used only for allocation
// bookkeeping never allocates its words; the first data access does, and
// reads zero.
func TestLayoutOnlyUntilDataAccess(t *testing.T) {
	m := New(1 << 30)
	a := m.Alloc("x", 1<<20)
	if m.words != nil || m.Words() != 1<<28 {
		t.Fatalf("words allocated before any data access (Words=%d)", m.Words())
	}
	if v := m.Read(a + 4); v != 0 || len(m.words) != 1<<28 {
		t.Fatalf("first Read = %d over %d words", v, len(m.words))
	}
}

// TestFitsMatchesAlloc: Fits predicts exactly when Alloc would panic,
// including sizes whose padding or alignment overflows.
func TestFitsMatchesAlloc(t *testing.T) {
	for _, c := range []struct {
		used, size uint64
		want       bool
	}{
		{0, 256, true},
		{0, 257, false},
		{4, 128, true}, // base aligns to 128, leaving exactly 128 bytes
		{4, 129, false},
		{0, ^uint64(0), false},
		{0, ^uint64(0) - 2, false},
	} {
		m := New(256)
		if c.used > 0 {
			m.Alloc("pre", c.used)
		}
		if got := m.Fits(c.size); got != c.want {
			t.Errorf("used %d: Fits(%d) = %v, want %v", c.used, c.size, got, c.want)
		}
		if c.want {
			m.Alloc("x", c.size)
		}
	}
}

// Property: distinct allocations never overlap and all stay in bounds.
func TestAllocDisjointProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New(1 << 20)
		type span struct{ lo, hi uint64 }
		var spans []span
		total := uint64(0)
		for i, s := range sizes {
			sz := uint64(s)%512 + 4
			if total+sz+128 > m.Size() {
				break
			}
			a := m.Alloc(string(rune('a'+i%26)), sz)
			spans = append(spans, span{uint64(a), uint64(a) + sz})
			total += sz + 128
		}
		for i := range spans {
			if spans[i].hi > m.Size() {
				return false
			}
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
