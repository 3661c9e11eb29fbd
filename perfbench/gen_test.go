package main

import (
	"bytes"
	"testing"

	"scord/internal/config"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

func TestSessionsDeterministicPerSeed(t *testing.T) {
	same, differs := true, false
	for i := 0; i < 2000; i++ {
		if sessionTrace(7, 38, i) != sessionTrace(7, 38, i) || variantSeed(7, i) != variantSeed(7, i) {
			same = false
		}
		if sessionTrace(7, 38, i) != sessionTrace(8, 38, i) {
			differs = true
		}
	}
	if !same {
		t.Error("one seed generated two different session streams")
	}
	if !differs {
		t.Error("seeds 7 and 8 generated the same session stream")
	}
}

func TestEveryBlockUploadsEachTraceOnce(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		for block := 0; block < 20; block++ {
			seen := make([]bool, 38)
			for k := 0; k < 38; k++ {
				tr := sessionTrace(seed, 38, block*38+k)
				if seen[tr] {
					t.Fatalf("seed %d block %d uploads trace %d twice", seed, block, tr)
				}
				seen[tr] = true
			}
		}
	}
}

func TestDeviceSeedDeterministic(t *testing.T) {
	if simSeed(3) != simSeed(3) || simSeed(3) == simSeed(4) {
		t.Error("simSeed is not a deterministic function of the seed")
	}
	if simSeed(3) < 0 {
		t.Error("negative device seed")
	}
}

func TestRecordedCorpusDeterministic(t *testing.T) {
	m := micro.All()[0]
	a, err := record(m, "", config.ModeCached, simSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := record(m, "", config.ModeCached, simSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.raw, b.raw) {
		t.Error("one seed recorded two different traces")
	}
}

func TestReencodeRoundTrip(t *testing.T) {
	e, err := record(micro.All()[3], "", config.ModeCached, 1)
	if err == nil {
		err = e.load()
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := reencode(e.h, e.ops)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, e.raw) {
		t.Error("re-encoding a trace under its own header changed its bytes")
	}
}

func TestVariantsAreDistinct(t *testing.T) {
	e, err := record(micro.All()[0], "", config.ModeCached, 1)
	if err == nil {
		err = e.load()
	}
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{string(e.raw): true}
	for i := 0; i < 64; i++ {
		cfg := e.h.Config
		cfg.Seed = variantSeed(1, i)
		raw, err := reencode(tracefile.NewHeader(e.h.Benchmark, e.h.Injections, cfg), e.ops)
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(raw)] {
			t.Fatal("two variants share their bytes")
		}
		seen[string(raw)] = true
	}
}
