package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: Summarize must sort
	}
	return xs
}

func TestSummarizeTailLadder(t *testing.T) {
	cases := []struct {
		n     int
		tailQ float64
		tail  float64
	}{
		{n: 10, tailQ: 0},
		{n: 99, tailQ: 0},
		{n: 100, tailQ: 0.9, tail: 90},
		{n: 999, tailQ: 0.9, tail: 900},
		{n: 1000, tailQ: 0.99, tail: 990},
		{n: 9999, tailQ: 0.99, tail: 9900},
		{n: 10000, tailQ: 0.999, tail: 9990},
	}
	for _, c := range cases {
		d := Summarize(seq(c.n))
		if d.N != c.n || d.TailQ != c.tailQ || d.Tail != c.tail {
			t.Errorf("n=%d: got N=%d tail p%v=%v, want p%v=%v", c.n, d.N, d.TailQ, d.Tail, c.tailQ, c.tail)
		}
		if d.TailQ != 0 && beyond(d.N, d.TailQ) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, d.TailQ, beyond(d.N, d.TailQ))
		}
	}
}

func TestSummarizeMedian(t *testing.T) {
	if d := Summarize([]float64{5, 1, 3}); d.P50 != 3 {
		t.Errorf("median of {5,1,3} = %v, want 3", d.P50)
	}
	if d := Summarize(nil); d.N != 0 || d.P50 != 0 || d.TailQ != 0 {
		t.Errorf("empty sample summarised as %+v", d)
	}
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 {
		t.Error("Summarize reordered its input")
	}
}

func TestP99RefusesSmallSamples(t *testing.T) {
	if _, err := P99(seq(999)); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	got, err := P99(seq(1000))
	if err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
}

func TestDistStringCarriesCount(t *testing.T) {
	if s := Summarize(seq(1000)).String(); s != "p50=500 p99=990 n=1000" {
		t.Errorf("got %q", s)
	}
	if s := Summarize(seq(5)).String(); s != "p50=3 n=5" {
		t.Errorf("got %q", s)
	}
}
