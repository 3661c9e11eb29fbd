package replay_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/detectors"
	"scord/internal/replay"
	"scord/internal/tracefile"
)

// encodeTrace writes a trace of one allocation, one kernel and the given
// lane accesses under cfg, and returns its bytes.
func encodeTrace(t *testing.T, cfg config.Config, allocBytes uint64, accs ...core.Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf, tracefile.NewHeader("arena", nil, cfg))
	if err != nil {
		t.Fatal(err)
	}
	w.Alloc("big", 0, allocBytes)
	w.KernelStart("k", 2, 32, 0)
	for _, a := range accs {
		w.Access(a, core.AtomicOther, 4)
	}
	w.KernelEnd("k", 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func replayBytes(raw []byte, name string) (*replay.Result, error) {
	r, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	tgt, err := replay.TargetByName(name, r.Header().Config)
	if err != nil {
		return nil, err
	}
	return replay.Run(r, tgt)
}

// TestLargeArenaEveryDetector: every detector covers the whole arena the
// trace declares. A cross-block store pair 20 MB into a 32 MB arena —
// beyond any fixed table sized for the default 2 MB device — is a race
// all five models report.
func TestLargeArenaEveryDetector(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	cfg.DeviceMemBytes = 32 << 20
	const addr = 20 << 20
	raw := encodeTrace(t, cfg, 24<<20,
		core.Access{Kind: core.KindStore, Addr: addr, Block: 0, Warp: 0},
		core.Access{Kind: core.KindStore, Addr: addr, Block: 1, Warp: 0},
	)
	for _, name := range replay.TargetNames() {
		res, err := replayBytes(raw, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Races) != 1 || res.Races[0].Addr != addr {
			t.Errorf("%s races = %v, want one at %#x", name, res.Races, addr)
		}
	}
}

// TestOutOfArenaTraceIsAnError: accesses beyond the header's arena,
// allocations overflowing it and arena sizes no device can have are
// replay errors under every detector, never panics.
func TestOutOfArenaTraceIsAnError(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	arena := uint64(cfg.DeviceMemBytes)
	store := func(addr uint64, block int) core.Access {
		return core.Access{Kind: core.KindStore, Addr: addr, Block: block}
	}
	cases := []struct {
		name, want string
		raw        []byte
	}{
		{"access", "outside the", encodeTrace(t, cfg, 1024, store(arena+arena/2, 0), store(arena+arena/2, 1))},
		{"last word", "outside the", encodeTrace(t, cfg, 1024, store(arena, 0))},
		{"alloc", "exceeds the", encodeTrace(t, cfg, arena+4)},
	}
	for _, c := range cases {
		for _, name := range replay.TargetNames() {
			_, err := replayBytes(c.raw, name)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s/%s: err = %v, want %q", c.name, name, err, c.want)
			}
		}
	}

	bad := cfg
	bad.DeviceMemBytes = 0
	h := tracefile.NewHeader("arena", nil, bad)
	for _, name := range []string{"haccrg", "barracuda", "curd"} {
		if _, err := replay.TargetByName(name, bad); err == nil {
			t.Errorf("%s built over a zero-byte arena", name)
		}
	}
	if _, err := replay.RunOps(h, nil, replay.NewChecker(detectors.NewLDetector())); err == nil {
		t.Error("RunOps accepted a zero-byte arena")
	}
}

// TestTargetConstructionIsCheap: building a detector allocates nothing
// proportional to the arena, even at the 1 GiB analysis limit — its
// metadata pages appear as the trace touches them.
func TestTargetConstructionIsCheap(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	cfg.DeviceMemBytes = 1 << 30
	const limit = 1 << 20
	for _, name := range replay.TargetNames() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tgt, err := replay.TargetByName(name, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("building %s allocated %d bytes, want at most %d", name, got, limit)
		}
		runtime.KeepAlive(tgt)
	}
}
