package replay

import (
	"math/rand"

	"scord/internal/tracefile"
)

// Perturb returns a copy of ops with up to swaps bounded, seeded
// reorderings applied: each round picks a random access op and walks it
// forward by up to maxDist adjacent swaps, stopping at the first illegal
// exchange. The result is a plausible alternative interleaving of the
// recorded execution, used to hunt schedule-dependent races that the one
// recorded schedule happened not to expose.
//
// A swap is legal exactly when Swappable permits it (see legality.go
// for the shared rules: program order, fence/barrier/kernel pinning,
// same-word synchronization). Races found under perturbation are
// candidates under *some* warp schedule, not certainties; the
// cross-check against the static predictor's tuple set (racepred) keeps
// the hunt honest.
//
// Perturb is deterministic for a given (ops, swaps, maxDist, seed).
func Perturb(ops []tracefile.Op, swaps, maxDist int, seed int64) []tracefile.Op {
	out := make([]tracefile.Op, len(ops))
	copy(out, ops)
	if len(out) < 2 || swaps <= 0 || maxDist <= 0 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < swaps; s++ {
		i := rng.Intn(len(out) - 1)
		dist := 1 + rng.Intn(maxDist)
		for k := 0; k < dist && i+1 < len(out); k++ {
			if !Swappable(out[i], out[i+1]) {
				break
			}
			out[i], out[i+1] = out[i+1], out[i]
			i++
		}
	}
	return out
}

// PerturbTarget searches for a legality-preserving reordering of ops
// that makes the pair (i, j) adjacent, i < j: it greedily walks op j
// backward and op i forward through legal adjacent swaps (the same
// legality relation Perturb uses, so program order, fences, barriers,
// kernel boundaries and same-word synchronization are all respected)
// until the two meet or neither can move. It returns the perturbed
// schedule, the pair's new positions, and whether adjacency was reached.
//
// The predict confirmation gate uses this to turn a predicted-race
// witness (two trace offsets) into a concrete alternative schedule: if
// the pair can be made adjacent, no third access can overwrite the
// detector's per-word metadata between them, so replaying the perturbed
// trace forces the dynamic detector to judge exactly the predicted pair.
//
// PerturbTarget is deterministic and never modifies ops.
func PerturbTarget(ops []tracefile.Op, i, j int) ([]tracefile.Op, int, int, bool) {
	if i < 0 || j >= len(ops) || i >= j {
		return nil, 0, 0, false
	}
	out := make([]tracefile.Op, len(ops))
	copy(out, ops)
	for {
		moved := false
		for j > i+1 && Swappable(out[j-1], out[j]) {
			out[j-1], out[j] = out[j], out[j-1]
			j--
			moved = true
		}
		for j > i+1 && Swappable(out[i], out[i+1]) {
			out[i], out[i+1] = out[i+1], out[i]
			i++
			moved = true
		}
		if j == i+1 || !moved {
			return out, i, j, j == i+1
		}
	}
}
