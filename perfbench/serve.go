package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scord/internal/config"
	"scord/internal/replay"
	"scord/internal/scor/micro"
	"scord/internal/serve"
	"scord/internal/tracefile"
)

// The serve workload: an in-process serve.Server with its default
// configuration behind a loopback HTTP listener. An open loop starts CI
// serve smoke sessions at a fixed rate; a closed loop of one client per
// processor then sends serve.LoadTest's requests (gen.go says where
// each pattern comes from). Small traces (the 32 micros) stress
// per-request detector construction; large app traces stress trace
// decoding and per-op replay; uploads stress serve.Validate.

const (
	// sessionRate is the open loop's session arrival rate per second. A
	// block of 38 sessions costs about 3 s of processor time in replays
	// (about 45 ms for a micro, 150–450 ms for a large trace), so 8
	// sessions/s keep about a third of a two-processor host busy.
	// README.md says why not half.
	sessionRate = 8.0
	// openShare is the share of the run the open loop's sessions are
	// due in, in whole blocks of sessions (each corpus trace once per
	// block) and at least minBlocks of them; the closed loop measures
	// capacity for the rest of the run, first, and for at least a
	// quarter of it.
	openShare = 0.5
	// minBlocks gives the tail 24 large-trace samples: four blocks of
	// 38 sessions give 152 cold replays, 12 of them beyond p92.
	minBlocks = 4
	// serveTailPct is the serve tail percentile of cold-replay latency.
	// A block's cold replays are 32 micros and 6 large traces; the
	// slowest sixth are the large ones, and p92 falls on the 12th of the
	// 16 MM and RED samples, below the two 1DC traces, which are slower
	// still. p93, the highest percentile with ten beyond it, falls two
	// samples from the 1DC ones and jumps between trace kinds.
	serveTailPct = 92
	// capacityBlock is how many consecutive closed-loop completions one
	// rate is taken over; capacity is the median of the blocks' rates.
	capacityBlock = 10
	// tenants is serve.LoadTest's default tenant spread.
	tenants = 4
	// loadTestMicro is the trace scord-serve -loadtest records.
	loadTestMicro = "fence.racey.cross-none"
)

// serveLarge are the large traces of the serve corpus.
var serveLarge = []appSpec{
	{"MM", ""}, {"RED", ""}, {"1DC", ""},
	{"MM", "fence-scope"}, {"RED", "fence"}, {"1DC", "halo-atomic"},
}

// variant is a corpus trace's op stream under a header with another
// device seed: a valid trace with a content address of its own, as a
// fresh recording would have.
type variant struct {
	base int // corpus index of the trace
	h    tracefile.Header
	raw  []byte // released once uploaded
	sum  [sha256.Size]byte
}

// serveEnv is one set-up: a recorded corpus, the fresh variant of every
// session a run sends, and a running server holding the load-test trace.
type serveEnv struct {
	corpus []*entry // micros first, then the large traces
	nSmall int
	fresh  []variant // session i uploads fresh[i]

	load   *entry // the load-test trace
	loadID string

	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

// sessionsFor is how many sessions an open loop of the given length
// sends: whole blocks at sessionRate, at least minBlocks.
func sessionsFor(seconds float64, n int) int {
	return max(int(sessionRate*seconds)/n, minBlocks) * n
}

func setupServe(seed int64, sessions int) (*serveEnv, error) {
	dev := simSeed(seed)
	micros, err := recordMicros(config.ModeCached, dev)
	if err != nil {
		return nil, err
	}
	large, err := recordApps(serveLarge, config.ModeCached, dev)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{corpus: append(micros, large...), nSmall: len(micros)}
	for _, e := range large {
		if err := e.load(); err != nil {
			return nil, err
		}
	}
	n := sessions + len(env.corpus) // the warm-up sends one more block
	env.fresh = make([]variant, n)
	for i := range env.fresh {
		b := sessionTrace(seed, len(env.corpus), i)
		e := env.corpus[b]
		cfg := e.h.Config
		cfg.Seed = variantSeed(seed, i)
		h := tracefile.NewHeader(e.h.Benchmark, e.h.Injections, cfg)
		raw, err := reencode(h, e.ops)
		if err != nil {
			return nil, err
		}
		env.fresh[i] = variant{base: b, h: h, raw: raw, sum: sha256.Sum256(raw)}
	}
	for _, m := range micro.All() {
		if m.Name() == loadTestMicro {
			if env.load, err = record(m, "", config.ModeFull4B, dev); err == nil {
				err = env.load.load()
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if env.load == nil {
		return nil, fmt.Errorf("no micro %s", loadTestMicro)
	}

	env.srv = serve.New(serve.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.hs = &http.Server{Handler: env.srv.Handler()}
	env.served = make(chan error, 1)
	go func() { env.served <- env.hs.Serve(ln) }()
	env.base = "http://" + ln.Addr().String()
	env.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     procs(),
		MaxIdleConnsPerHost: procs(),
	}}
	if err := env.warm(); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// warm uploads the load-test trace, replays it once, and runs the
// sessions of the last block of variants that upload a large trace, one
// at a time, so the timed traffic starts on a server whose heap has
// grown to what the large traces need.
func (env *serveEnv) warm() error {
	id, dup, err := env.upload(env.load.raw, sha256.Sum256(env.load.raw), nil)
	if err == nil && dup {
		err = fmt.Errorf("load-test trace answered dup=true")
	}
	if err != nil {
		return fmt.Errorf("upload %s: %w", env.load.name, err)
	}
	env.loadID = id
	if o := env.loadRequest(0, nil); o.err != nil {
		return o.err
	}
	first := len(env.fresh) - len(env.corpus)
	for i := first; i < len(env.fresh); i++ {
		if env.fresh[i].base < env.nSmall {
			continue
		}
		for _, o := range env.session(i, time.Now(), nil) {
			if o.err != nil {
				return fmt.Errorf("warm-up session: %w", o.err)
			}
		}
	}
	return nil
}

// close stops the listener and waits for the server goroutine to exit.
func (env *serveEnv) close() {
	env.hs.Close()
	<-env.served
	env.srv.Drain()
	env.client.CloseIdleConnections()
}

// upload posts raw and returns the content address and dup flag the
// server answered with; the address must be sum, the SHA-256 of raw.
func (env *serveEnv) upload(raw []byte, sum [sha256.Size]byte, sp *span) (string, bool, error) {
	status, body, _, err := env.post("/v1/traces", raw, 0, sp)
	if err != nil {
		return "", false, err
	}
	if status != http.StatusOK {
		return "", false, fmt.Errorf("upload: HTTP %d: %s", status, strings.TrimSpace(string(body)))
	}
	var resp struct {
		ID  string `json:"id"`
		Dup bool   `json:"dup"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", false, fmt.Errorf("upload: %w", err)
	}
	if want := hex.EncodeToString(sum[:]); resp.ID != want {
		return "", false, fmt.Errorf("upload: id %s is not the SHA-256 of the bytes (%s)", resp.ID, want)
	}
	return resp.ID, resp.Dup, nil
}

func (env *serveEnv) post(path string, body []byte, i int, sp *span) (int, []byte, string, error) {
	req, err := http.NewRequest(http.MethodPost, env.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("X-Scord-Tenant", fmt.Sprintf("tenant-%d", i%tenants))
	if tp := sp.traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := env.client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, resp.Header.Get("X-Scord-Cache"), err
}

// reqKind is the kind of one serve request.
type reqKind int

const (
	reqUpload reqKind = iota // a session's fresh upload
	reqMiss                  // a session's first replay: a cache miss
	reqHit                   // a session's second replay: a cache hit
	reqLoad                  // a closed-loop no_cache replay
)

func (k reqKind) String() string {
	return [...]string{"upload", "cold replay", "cached replay", "load-test replay"}[k]
}

// outcome is one completed request. A replay keeps only the SHA-256 of
// its body, so what the benchmark holds does not grow with throughput.
type outcome struct {
	kind    reqKind
	session int // index into fresh; -1 for a load-test replay
	sum     [sha256.Size]byte
	lat     time.Duration
	err     error
}

// replay posts one ?format=text replay of trace id under every detector
// and checks the X-Scord-Cache answer.
func (env *serveEnv) replay(id string, kind reqKind, i int, sp *span) outcome {
	o := outcome{kind: kind, session: -1}
	body, _ := json.Marshal(map[string]any{"trace": id, "detector": "all", "no_cache": kind == reqLoad})
	status, out, cache, err := env.post("/v1/replay?format=text", body, i, sp)
	o.sum = sha256.Sum256(out)
	want := map[reqKind]string{reqMiss: "miss", reqHit: "hit"}[kind]
	switch {
	case err != nil:
		o.err = err
	case status != http.StatusOK:
		o.err = fmt.Errorf("%v: HTTP %d: %s", kind, status, strings.TrimSpace(string(out)))
	case want != "" && cache != want:
		o.err = fmt.Errorf("%v answered X-Scord-Cache %q", kind, cache)
	}
	return o
}

// session runs CI serve smoke session i, due at due: upload a fresh
// variant, replay it (a miss), replay it again (a hit). The upload is
// timed from the due time, each replay from when it is sent, which is
// when the request before it answered.
func (env *serveEnv) session(i int, due time.Time, log *spanLog) []outcome {
	v := &env.fresh[i]
	root := log.op("bench.session")
	defer root.end()
	sp := root.child("serve.upload")
	id, dup, err := env.upload(v.raw, v.sum, sp)
	sp.end()
	if err == nil && dup {
		err = fmt.Errorf("fresh upload answered dup=true")
	}
	v.raw = nil
	outs := []outcome{{kind: reqUpload, session: i, lat: time.Since(due), err: err}}
	if err != nil {
		return outs
	}
	for _, kind := range []reqKind{reqMiss, reqHit} {
		sp := root.child("serve.replay")
		t0 := time.Now()
		o := env.replay(id, kind, i, sp)
		o.lat = time.Since(t0)
		sp.end()
		o.session = i
		outs = append(outs, o)
		if o.err != nil {
			break
		}
	}
	return outs
}

// loadRequest sends closed-loop request i: serve.LoadTest's replay.
func (env *serveEnv) loadRequest(i int, log *spanLog) outcome {
	root := log.op("bench.load-test")
	defer root.end()
	sp := root.child("serve.replay")
	defer sp.end()
	t0 := time.Now()
	o := env.replay(env.loadID, reqLoad, i, sp)
	o.lat = time.Since(t0)
	return o
}

// recorder collects outcomes from concurrent clients.
type recorder struct {
	mu  sync.Mutex
	out []outcome
}

func (rc *recorder) add(o ...outcome) {
	rc.mu.Lock()
	rc.out = append(rc.out, o...)
	rc.mu.Unlock()
}

func (rc *recorder) all() []outcome {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]outcome(nil), rc.out...)
}

// openLoop starts sessions first..first+n-1 due at sessionRate. It
// returns how late the generator started each session, in ms.
func (env *serveEnv) openLoop(first, n int, log *spanLog, rc *recorder) []float64 {
	var wg sync.WaitGroup
	late := make([]float64, 0, n)
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / sessionRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			rc.add(env.session(i, due, log)...)
		}(first+k, due)
	}
	wg.Wait()
	return late
}

// closedLoop runs one client per processor, each sending its next
// load-test replay when the previous answers, for d. It returns the
// completion rate of each run of capacityBlock consecutive completions,
// in requests per second.
func (env *serveEnv) closedLoop(d time.Duration, log *spanLog, rc *recorder) []float64 {
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		mu   sync.Mutex
		done []time.Duration
	)
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < procs(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := env.loadRequest(int(next.Add(1))-1, log)
				if o.err == nil {
					mu.Lock()
					done = append(done, time.Since(start))
					mu.Unlock()
				}
				rc.add(o)
			}
		}()
	}
	wg.Wait()
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	var rates []float64
	for b := capacityBlock; b <= len(done); b += capacityBlock {
		from := time.Duration(0)
		if b > capacityBlock {
			from = done[b-capacityBlock-1]
		}
		rates = append(rates, capacityBlock/(done[b-1]-from).Seconds())
	}
	return rates
}

// queueSampler samples the pool's queued jobs every millisecond until
// stopped.
type queueSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleQueue(p *serve.Pool) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
				q.samples = append(q.samples, float64(p.Queued()))
			}
		}
	}()
	return q
}

// end stops the sampler and returns its samples.
func (q *queueSampler) end() []float64 {
	close(q.stop)
	<-q.done
	return q.samples
}

// verify checks every outcome: a replay's body must hash to the SHA-256
// of replay.Result.WriteText computed offline for the same trace under
// every detector. Upload ids and cache answers were checked as the
// requests completed.
func (env *serveEnv) verify(outs []outcome, r *report) error {
	sections := &sectionCache{text: map[sectionKey][]byte{}}
	loadText, err := sections.render(env.load.h, env.load, -1)
	if err != nil {
		return err
	}
	want := map[int][sha256.Size]byte{-1: sha256.Sum256(loadText)}
	for _, o := range outs {
		if _, ok := want[o.session]; ok || o.err != nil || o.kind == reqUpload {
			continue
		}
		v := env.fresh[o.session]
		text, err := sections.render(v.h, env.corpus[v.base], v.base)
		if err != nil {
			return err
		}
		want[o.session] = sha256.Sum256(text)
	}
	for _, o := range outs {
		err := o.err
		if err == nil && o.kind != reqUpload && o.sum != want[o.session] {
			name := env.load.name
			if o.session >= 0 {
				name = "a variant of " + env.corpus[env.fresh[o.session].base].name
			}
			err = fmt.Errorf("%v of %s: body differs from the offline rendering", o.kind, name)
		}
		r.check(err)
	}
	return nil
}

// sectionKey names one detector's text section: the op stream (a corpus
// index, or -1 for the load-test trace), the detector, and for scord the
// configuration with the device seed cleared — detectors never read the
// seed, so every variant of a trace shares its sections.
type sectionKey struct {
	ops  int
	name string
	cfg  uint64
}

// sectionCache renders and memoizes per-detector text sections.
type sectionCache struct {
	text map[sectionKey][]byte
}

// render returns the text a replay under every detector must answer for
// a trace with header h and the op stream of e, whose index is opsID.
func (c *sectionCache) render(h tracefile.Header, e *entry, opsID int) ([]byte, error) {
	unseeded := h.Config
	unseeded.Seed = 0
	var out bytes.Buffer
	for _, name := range replay.TargetNames() {
		k := sectionKey{ops: opsID, name: name}
		if name == "scord" {
			k.cfg = tracefile.HashConfig(unseeded)
		}
		text, ok := c.text[k]
		if !ok {
			t, err := replay.TargetByName(name, h.Config)
			if err != nil {
				return nil, err
			}
			if err := e.load(); err != nil {
				return nil, err
			}
			res, err := replay.RunOps(h, e.ops, t)
			if err != nil {
				return nil, err
			}
			var b bytes.Buffer
			res.WriteText(&b)
			text = b.Bytes()
			c.text[k] = text
		}
		out.Write(text)
	}
	return out.Bytes(), nil
}

// latencies returns the latencies (ms) of the sessions' requests of one
// kind; smallOnly keeps the sessions on the first nSmall corpus traces.
func (env *serveEnv) latencies(outs []outcome, kind reqKind, smallOnly bool) []float64 {
	var out []float64
	for _, o := range outs {
		if o.kind == kind && o.session >= 0 && (!smallOnly || env.fresh[o.session].base < env.nSmall) {
			out = append(out, ms(o.lat))
		}
	}
	return out
}

func runServe(o opts, r *report) error {
	sessions := sessionsFor(o.seconds*openShare, len(serveLarge)+len(micro.All()))
	env, setup, err := repeatSetup(setupRepeats, func() (*serveEnv, error) { return setupServe(o.seed, sessions) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	r.set("setup_s", "s", setup)

	// The closed loop runs first, on a server whose store holds the same
	// traces under every seed: the open loop's uploads would otherwise
	// set the heap it runs against.
	var open, closed recorder
	closedS := max(o.seconds-float64(sessions)/sessionRate, o.seconds/4)
	rates := env.closedLoop(time.Duration(closedS*float64(time.Second)), nil, &closed)
	late := env.openLoop(0, sessions, nil, &open)

	var loadLat []float64
	for _, out := range closed.all() {
		if out.err == nil {
			loadLat = append(loadLat, ms(out.lat))
		}
	}
	cold := env.latencies(open.all(), reqMiss, false)
	uploads := env.latencies(open.all(), reqUpload, false)
	if beyond(len(cold), serveTailPct) < minBeyond {
		return fmt.Errorf("serve: %d cold replays leave fewer than %d beyond p%g", len(cold), minBeyond, float64(serveTailPct))
	}
	if len(rates) == 0 {
		return fmt.Errorf("serve: the closed loop completed fewer than %d requests", capacityBlock)
	}
	r.set("throughput_per_s", "1/s", median(rates))
	r.set("p50_ms", "ms", median(loadLat))
	r.set("tail_ms", "ms", percentile(cold, serveTailPct))
	r.set("aux_p50_ms", "ms", median(uploads))
	if err := env.verify(append(open.all(), closed.all()...), r); err != nil {
		return err
	}
	nClosed := len(closed.all())
	// Retained memory is the server's: the corpus, the variants and the
	// outcomes the benchmark held for the checks are released first.
	env.corpus, env.fresh, env.load = nil, nil, nil
	open, closed = recorder{}, recorder{}
	r.set("retained_mb", "MB", retainedMB())

	sort.Float64s(rates)
	fmt.Printf("serve: closed loop %d requests, %.4g–%.4g/s per %d completions, p50 is their latency; %d sessions at %g/s, tail is p%g of their cold replays (median %.4g ms), aux is upload; generator late max %.3g ms\n",
		nClosed, rates[0], rates[len(rates)-1], capacityBlock, sessions, sessionRate,
		float64(serveTailPct), median(cold), percentile(late, 100))
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
