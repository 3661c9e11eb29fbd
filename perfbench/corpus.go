package main

import (
	"bytes"
	"fmt"

	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// entry is one recorded corpus trace. ops is nil until load decodes
// raw.
type entry struct {
	name string // "MM", "MM/fence-scope", "micro-name", ...
	raw  []byte
	h    tracefile.Header
	ops  []tracefile.Op
}

// load decodes the entry's op stream once.
func (e *entry) load() error {
	if e.ops != nil || e.raw == nil {
		return nil
	}
	rd, err := tracefile.NewReader(bytes.NewReader(e.raw))
	if err != nil {
		return fmt.Errorf("decode %s: %w", e.name, err)
	}
	if e.ops, err = replay.ReadAll(rd); err != nil {
		return fmt.Errorf("decode %s: %w", e.name, err)
	}
	return nil
}

// appSpec names one app configuration of a corpus.
type appSpec struct {
	app string
	inj string // "" for the correctly synchronized app
}

func appByName(name string) (scor.Benchmark, error) {
	for _, b := range scor.Apps() {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("no ScoR app %q", name)
}

func injections(inj string) []string {
	if inj == "" {
		return nil
	}
	return []string{inj}
}

// record simulates b with a tracefile.Writer attached and returns the
// trace undecoded.
func record(b scor.Benchmark, inj string, mode config.DetectorMode, seed int64) (*entry, error) {
	cfg := config.Default().WithDetector(mode)
	cfg.Seed = seed
	d, err := gpu.New(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(b.Name(), injections(inj), cfg))
	if err != nil {
		return nil, err
	}
	d.SetOpSink(tw)
	name := b.Name()
	if inj != "" {
		name += "/" + inj
	}
	if err := b.Run(d, injections(inj)); err != nil {
		return nil, fmt.Errorf("record %s: %w", name, err)
	}
	if err := tw.Close(); err != nil {
		return nil, fmt.Errorf("record %s: %w", name, err)
	}
	return &entry{name: name, raw: buf.Bytes(), h: tw.Header()}, nil
}

// recordMicros records the 32 microbenchmarks, decoded.
func recordMicros(mode config.DetectorMode, seed int64) ([]*entry, error) {
	var out []*entry
	for _, m := range micro.All() {
		e, err := record(m, "", mode, seed)
		if err == nil {
			err = e.load()
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func recordApps(specs []appSpec, mode config.DetectorMode, seed int64) ([]*entry, error) {
	var out []*entry
	for _, s := range specs {
		b, err := appByName(s.app)
		if err != nil {
			return nil, err
		}
		e, err := record(b, s.inj, mode, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// reencode writes ops under header h: the same op stream as a new trace
// whose bytes, and so content address, differ with the header.
func reencode(h tracefile.Header, ops []tracefile.Op) ([]byte, error) {
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf, h)
	if err != nil {
		return nil, err
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case tracefile.OpKernel:
			w.KernelStart(op.Name, op.Blocks, op.Threads, op.Cycle)
		case tracefile.OpKernelEnd:
			w.KernelEnd(op.Name, op.Cycle)
		case tracefile.OpAlloc:
			w.Alloc(op.Name, op.Base, op.Bytes)
		case tracefile.OpAccess:
			w.Access(op.Access, op.AtomicOp, op.Size)
		case tracefile.OpFence:
			w.Fence(op.Block, op.Warp, op.Scope, op.Cycle, op.FromBarrier)
		case tracefile.OpBarrier:
			w.Barrier(op.Block, op.BarrierID, op.Warps, op.Cycle)
		default:
			return nil, fmt.Errorf("reencode: unhandled op kind %v", op.Kind)
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
