package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {20, 1}, {21, 2}, {100, 5}, {99, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{40, 75, 10}, {39, 75, 9}, {100, 90, 10}, {99, 90, 9},
		{200, 95, 10}, {1000, 99, 10}, {10000, 99.9, 10}, {1, 50, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestConfiguredTailsMeetTheRule(t *testing.T) {
	// The smallest sample count serve guarantees before it stops
	// measuring. The sim and analysis tails are weighted, so their runs
	// count the samples beyond the tail as they go (above).
	for _, c := range []struct {
		name string
		n    int
		p    float64
	}{
		{"serve", sessionsFor(0, 38), serveTailPct},
	} {
		if beyond(c.n, c.p) < minBeyond {
			t.Errorf("%s: p%g of %d samples leaves %d beyond", c.name, c.p, c.n, beyond(c.n, c.p))
		}
	}
}

func TestBeyondCountsSamplesPastTheRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p90 := percentile(xs, 90)
	n := 0
	for _, x := range xs {
		if x > p90 {
			n++
		}
	}
	if n != beyond(len(xs), 90) {
		t.Errorf("%d samples exceed p90, beyond says %d", n, beyond(len(xs), 90))
	}
}

func TestWeightedPercentile(t *testing.T) {
	// Two cheap runs carry most of the work, two costly ones little.
	xs := []weighted{{4, 10}, {1, 60}, {9, 5}, {2, 25}}
	for _, c := range []struct{ p, want float64 }{
		{50, 1}, {60, 1}, {61, 2}, {85, 2}, {86, 4}, {95, 4}, {96, 9}, {100, 9},
	} {
		if got := weightedPercentile(xs, c.p); got != c.want {
			t.Errorf("weighted p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if weightedPercentile(nil, 50) != 0 {
		t.Error("weighted percentile of no samples is not 0")
	}
	// Equal weights give the nearest-rank percentile.
	var flat []weighted
	var plain []float64
	for _, v := range []float64{5, 1, 4, 2, 3, 8, 7, 6, 9, 10} {
		flat = append(flat, weighted{v, 1})
		plain = append(plain, v)
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 100} {
		if w, u := weightedPercentile(flat, p), percentile(plain, p); w != u {
			t.Errorf("p%g: weighted %g, nearest rank %g", p, w, u)
		}
	}
	if n := above(xs, weightedPercentile(xs, 85)); n != 2 {
		t.Errorf("%d samples above weighted p85, want 2", n)
	}
}
