package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"scord/internal/analysis/explore"
	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/replay"
	"scord/internal/tracefile"
)

// The analysis workload: predict.Run, then explore.Explore seeded with
// the predictions at a fixed schedule budget, over the masked-race
// example, the 32 micros and three injected app traces — RED/fence,
// which the explorer finishes exhaustively, and MM/fence-scope and
// R110/fence, where it bounds out. Their traces have the same shape
// under every device seed (UTS/steal-unlocked, which also bounds out,
// varies by a fifth in length and exploration time with the seed). It
// bypasses simulator timing and serve.

const (
	// exploreBudget is the DFS schedule budget per trace.
	exploreBudget = 16
	// witnessSample caps the predictions per trace whose witnesses the
	// traced run re-checks: MM/fence-scope alone has thousands, each
	// checked by re-reading the trace up to its second access.
	witnessSample = 64
	// predictRepeats is how many times a pass runs predict.Run on each
	// trace: one call on each large trace takes 40–400 ms and single
	// calls spread by a fifth within a run, so one call per pass left
	// too few samples for a steady median.
	predictRepeats = 3
	// analysisTailPct is the analysis tail percentile, weighted by
	// schedules: each Explore call stands for its explored and seeded
	// schedules at its time per schedule. A pass explores 161 schedules:
	// 26 micros and RED/fence in one each, the masked example in six,
	// six lock micros and MM/fence-scope and R110/fence in 16 each. The
	// micros hold the cheapest 128, R110/fence the next 16, and
	// MM/fence-scope and RED/fence the costliest 17, so p90 falls on
	// MM/fence-scope's fastest run, with its other runs and RED/fence
	// beyond it. Unweighted percentiles fell among the micros, whose
	// 1–70 ms calls spread by a fifth to a half within a run.
	analysisTailPct = 90
)

var analysisApps = []appSpec{{"RED", "fence"}, {"MM", "fence-scope"}, {"R110", "fence"}}

// setupAnalysis builds the analysis corpus.
func setupAnalysis(seed int64) ([]*entry, error) {
	h, ops := explore.MaskedRaceExample()
	out := []*entry{{name: "masked", h: h, ops: ops}}
	micros, err := recordMicros(config.ModeFull4B, simSeed(seed))
	if err != nil {
		return nil, err
	}
	apps, err := recordApps(analysisApps, config.ModeFull4B, simSeed(seed))
	if err != nil {
		return nil, err
	}
	for _, e := range apps {
		if err := e.load(); err != nil {
			return nil, err
		}
	}
	return append(append(out, micros...), apps...), nil
}

// analyzed is one trace's analysis.
type analyzed struct {
	predictDurs            []time.Duration // each of the predictRepeats calls
	predictDur, exploreDur time.Duration   // the first predict.Run call; Explore
	preds                  []predict.Prediction
	v                      *explore.Verdict
	verdict                string // the rendered verdict, compared across passes
}

func analyze(e *entry, root *span) (analyzed, error) {
	var a analyzed
	var pr *predict.Result
	for k := 0; k < predictRepeats; k++ {
		sp := root.child("predict.run")
		t0 := time.Now()
		again, err := predict.Run(e.h, e.ops, predict.Options{})
		a.predictDurs = append(a.predictDurs, time.Since(t0))
		sp.end()
		if err != nil {
			return a, fmt.Errorf("predict %s: %w", e.name, err)
		}
		if pr != nil && len(again.Predictions) != len(pr.Predictions) {
			return a, fmt.Errorf("predict %s: %d predictions, then %d", e.name, len(pr.Predictions), len(again.Predictions))
		}
		if pr == nil {
			pr = again
		}
	}
	a.predictDur = a.predictDurs[0]
	a.preds = pr.Predictions
	sp := root.child("explore.explore")
	t0 := time.Now()
	var err error
	a.v, err = explore.Explore(e.h, e.ops, explore.Options{
		MaxSchedules: exploreBudget,
		Jobs:         procs(),
		Seeds:        pr.Predictions,
	})
	a.exploreDur = time.Since(t0)
	sp.end()
	if err != nil {
		return a, fmt.Errorf("explore %s: %w", e.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "predictions %d\n", len(pr.Predictions))
	a.v.WriteText(&b)
	a.verdict = b.String()
	return a, nil
}

// analysisPass analyzes every corpus trace once and checks each: every
// finding's witness verified, and the verdict identical to the first
// pass's.
func analysisPass(corpus []*entry, r *report, first map[string]string, log *spanLog) ([]analyzed, error) {
	out := make([]analyzed, len(corpus))
	for i, e := range corpus {
		root := log.op("bench.analysis")
		a, err := analyze(e, root)
		root.end()
		if err != nil {
			return nil, err
		}
		var cerr error
		for _, f := range a.v.Races {
			if !f.WitnessOK {
				cerr = fmt.Errorf("analysis %s: finding %s/%s has an unverified witness: %s", e.name, f.Alloc, f.Kind, f.WitnessErr)
			}
		}
		if want, seen := first[e.name]; seen && want != a.verdict {
			cerr = fmt.Errorf("analysis %s: verdict differs between passes", e.name)
		} else if first != nil && !seen {
			first[e.name] = a.verdict
		}
		r.check(cerr)
		out[i] = a
	}
	return out, nil
}

func runAnalysis(o opts, r *report) error {
	corpus, setup, err := repeatSetup(setupRepeats, func() ([]*entry, error) { return setupAnalysis(o.seed) }, nil)
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setup)

	first := map[string]string{}
	var passLat []float64                       // ms to analyze the corpus once: predict.Run and Explore per trace
	var lat []weighted                          // each Explore call's ms per schedule
	perTrace := make([][]float64, len(corpus))  // explore seconds of each pass
	predictMs := make([][]float64, len(corpus)) // predict.Run ms of each call
	scheds := make([]int, len(corpus))          // schedules of one pass
	var ops int
	var predictT time.Duration
	start := time.Now()
	for time.Since(start).Seconds() < o.seconds || above(lat, weightedPercentile(lat, analysisTailPct)) < minBeyond {
		pass, err := analysisPass(corpus, r, first, nil)
		if err != nil {
			return err
		}
		passMs := 0.0
		for i, a := range pass {
			n := float64(a.v.Explored + a.v.Seeded)
			lat = append(lat, weighted{ms(a.exploreDur) / n, n})
			passMs += ms(a.predictDur) + ms(a.exploreDur)
			for _, d := range a.predictDurs {
				predictMs[i] = append(predictMs[i], ms(d))
			}
			perTrace[i] = append(perTrace[i], a.exploreDur.Seconds())
			scheds[i] = a.v.Explored + a.v.Seeded
			ops += len(corpus[i].ops)
			predictT += a.predictDur
		}
		passLat = append(passLat, passMs)
	}
	// The median pass: each trace's median explore and predict times.
	var sumSched int
	var sumS, sumPredictMs float64
	for i := range corpus {
		sumSched += scheds[i]
		sumS += median(perTrace[i])
		sumPredictMs += median(predictMs[i])
	}
	rate := float64(sumSched) / sumS
	r.set("retained_mb", "MB", retainedMB())
	runtime.KeepAlive(corpus) // the corpus is part of what the workload holds
	r.set("throughput_per_s", "1/s", rate)
	tail := weightedPercentile(lat, analysisTailPct)
	r.set("p50_ms", "ms", median(passLat))
	r.set("tail_ms", "ms", tail)
	r.set("aux_p50_ms", "ms", sumPredictMs)
	fmt.Printf("analysis: %d passes, %d traces analyzed; explore_sched_per_s=%.6g; predict_ops_per_s=%.6g; p50 is the median pass; tail is the schedule-weighted p%g of ms per schedule, %d calls beyond; aux is predict.Run over the median pass\n",
		len(passLat), len(lat), rate, float64(ops)/predictT.Seconds(), float64(analysisTailPct), above(lat, tail))
	return nil
}

// traceMetricName turns a corpus trace name into a metric-name suffix.
func traceMetricName(name string) string { return strings.ReplaceAll(name, "/", "_") }

// profileAnalysis measures the predict and explore layers: untraced
// and traced passes alternating, for the tracing overhead and the
// layer times; a pass that splits exploration into schedule generation
// and detector replay; then the witness checks timed alone.
func profileAnalysis(seed int64, r *report, log *spanLog) error {
	corpus, err := setupAnalysis(seed)
	if err != nil {
		return err
	}
	var plainS, tracedS []float64
	var pass []analyzed
	for round := 0; round < profileRounds; round++ {
		for _, l := range []*spanLog{nil, log} {
			t0 := time.Now()
			p, err := analysisPass(corpus, r, nil, l)
			if err != nil {
				return err
			}
			if l == nil {
				plainS = append(plainS, time.Since(t0).Seconds())
			} else {
				tracedS = append(tracedS, time.Since(t0).Seconds())
				pass = p
			}
		}
	}
	r.set("tracing.overhead_pct.analysis", "%", (median(tracedS)/median(plainS)-1)*100)

	var predictS, microS float64
	var explored, pruned, bounded, branches, seeded int
	for i, a := range pass {
		predictS += a.predictDur.Seconds()
		v := a.v
		explored += v.Explored
		pruned += v.Pruned
		bounded += v.BoundedOut
		branches += v.Branches
		seeded += v.Seeded
		if i >= 1 && i < len(corpus)-len(analysisApps) {
			microS += a.exploreDur.Seconds()
		} else {
			r.set("explore.run_s."+traceMetricName(corpus[i].name), "s", a.exploreDur.Seconds())
		}
	}
	r.set("explore.run_s.micros", "s", microS)
	r.set("predict.run_s", "s", predictS)
	r.set("explore.explored", "count", float64(explored))
	r.set("explore.pruned", "count", float64(pruned))
	r.set("explore.bounded_out", "count", float64(bounded))
	r.set("explore.branches", "count", float64(branches))
	r.set("explore.seeded", "count", float64(seeded))
	r.set("explore.useful_ratio", "fraction", float64(explored)/float64(explored+pruned))

	genS, replayS, err := splitExplore(corpus, pass, r, log)
	if err != nil {
		return err
	}
	r.set("explore.gen_s", "s", genS)
	r.set("explore.replay_s", "s", replayS)

	var witnessS float64
	for i, e := range corpus {
		root := log.op("bench.analysis-witness")
		sp := root.child("predict.witness")
		t0 := time.Now()
		preds := pass[i].preds
		for _, p := range preds[:min(len(preds), witnessSample)] {
			err := predict.CheckWitness(e.h, e.ops, p.Witness)
			if err != nil {
				err = fmt.Errorf("analysis %s: prediction witness: %w", e.name, err)
			}
			r.check(err)
		}
		witnessS += time.Since(t0).Seconds()
		sp.end()
		root.end()
	}
	r.set("predict.witness_check_s", "s", witnessS)
	return nil
}

// splitExplore splits exploration time into detector replays and the
// rest (schedule generation and witness derivation), so that the two
// add up to the exploration time. On one processor, with one replay
// worker, Explore runs generation and replays one after the other; it
// collects every DFS schedule through Options.OnSchedule, and the
// collected schedules, then the seed schedules the DFS did not cover,
// are replayed and timed alone. Each verdict must equal its pass's.
func splitExplore(corpus []*entry, pass []analyzed, r *report, log *spanLog) (genS, replayS float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var exploreS float64
	for i, e := range corpus {
		var scheds [][]int
		t0 := time.Now()
		v, err := explore.Explore(e.h, e.ops, explore.Options{
			MaxSchedules: exploreBudget,
			Jobs:         1,
			Seeds:        pass[i].preds,
			OnSchedule: func(_ int, perm []int) error {
				scheds = append(scheds, perm)
				return nil
			},
		})
		exploreS += time.Since(t0).Seconds()
		if err != nil {
			return 0, 0, fmt.Errorf("explore %s: %w", e.name, err)
		}
		var b strings.Builder
		v.WriteText(&b)
		var want strings.Builder
		pass[i].v.WriteText(&want)
		if b.String() != want.String() {
			r.check(fmt.Errorf("analysis %s: verdict with one replay worker differs", e.name))
		}

		root := log.op("bench.analysis-replay")
		sp := root.child("replay.schedules")
		t0 = time.Now()
		h := e.h
		h.Config = h.Config.WithDetector(config.ModeFull4B)
		for _, perm := range scheds {
			if err := replaySchedule(h, e.ops, perm); err != nil {
				return 0, 0, fmt.Errorf("analysis %s: %w", e.name, err)
			}
		}
		n, err := replaySeeds(h, e.ops, v, pass[i].preds)
		replayS += time.Since(t0).Seconds()
		sp.end()
		root.end()
		if err != nil {
			return 0, 0, fmt.Errorf("analysis %s: %w", e.name, err)
		}
		if n != v.Seeded {
			r.check(fmt.Errorf("analysis %s: %d seed schedules replayed, the verdict counts %d", e.name, n, v.Seeded))
		}
	}
	return exploreS - replayS, replayS, nil
}

// replaySeeds replays the seed schedules Explore replays after its DFS:
// for each prediction, in order, whose race tuple no earlier schedule
// exposed, the PerturbTarget walk to its witness. It returns how many
// it replayed.
func replaySeeds(h tracefile.Header, ops []tracefile.Op, v *explore.Verdict, preds []predict.Prediction) (int, error) {
	found := map[predict.Tuple]bool{}
	for _, f := range v.Races {
		if !f.Seeded {
			found[f.Tuple()] = true
		}
	}
	n := 0
	for _, p := range preds {
		if found[predict.Tuple{Alloc: p.Alloc, Kind: p.Record.Kind}] {
			continue
		}
		pops, _, _, ok := replay.PerturbTarget(ops, p.Witness.Prev, p.Witness.Cur)
		if !ok {
			continue
		}
		sc, err := replay.NewScoRD(h.Config)
		if err != nil {
			return n, err
		}
		if _, err := replay.RunOps(h, pops, sc); err != nil {
			return n, err
		}
		for _, f := range v.Races {
			if f.Seeded && f.Schedule == v.Explored+n {
				found[f.Tuple()] = true
			}
		}
		n++
	}
	return n, nil
}

func replaySchedule(h tracefile.Header, ops []tracefile.Op, perm []int) error {
	sc, err := replay.NewScoRD(h.Config)
	if err != nil {
		return err
	}
	_, err = replay.RunOpsPermuted(h, ops, perm, sc)
	return err
}
