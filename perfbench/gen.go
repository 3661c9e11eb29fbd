package main

import "hash/fnv"

// Every input the benchmark hands the program derives from the --seed
// argument through this file: the simulation seed, the recorded corpus,
// and the serve sessions. A stream name separates independent
// draws, so adding a draw to one stream never shifts another.

// rng is a SplitMix64 generator: tiny, fast and fully specified, so a
// seed yields the same inputs on every platform and Go release.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string, idx int) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: mix64(mix64(uint64(seed)) ^ h.Sum64() ^ mix64(uint64(idx)+1))}
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a uniformly shuffled [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// simSeed is the device seed the sim, serve and analysis corpora are
// simulated under: it drives every input the ScoR apps generate.
func simSeed(seed int64) int64 {
	return int64(newRNG(seed, "device", 0).next() >> 1)
}

// The serve traffic copies the two client patterns the repository
// itself exercises scord-serve with, so that no request weight is a
// guess:
//
//   - the CI serve smoke: a client uploads a freshly recorded trace,
//     replays it under every detector with ?format=text (a result-cache
//     miss), then sends the same request again (a hit that must return
//     the same bytes). The open loop starts such sessions at a fixed
//     rate.
//   - serve.LoadTest as scord-serve -loadtest runs it: concurrent
//     replays of the recorded fence.racey.cross-none micro under every
//     detector with no_cache set, spread over four tenants. The closed
//     loop sends these.
//
// The only choice left is which trace a session uploads. The corpus
// holds the 32 micros and the large app traces, and every block of
// len(corpus) sessions uploads each corpus trace once, in an order the
// seed shuffles: every trace equally often, and a whole number of
// blocks costs the same under every seed.

// sessionTrace returns the corpus index session i uploads a fresh
// variant of, for a corpus of n traces.
func sessionTrace(seed int64, n, i int) int {
	return newRNG(seed, "sessions", i/n).perm(n)[i%n]
}

// variantSeed is the device seed in the header of session i's fresh
// variant: the header alone makes its bytes, and so its content
// address, new.
func variantSeed(seed int64, i int) int64 {
	return int64(newRNG(seed, "variant", i).next() >> 1)
}
