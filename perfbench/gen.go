package main

import (
	"crowdassess/internal/crowd"
	"crowdassess/internal/dist"
	"crowdassess/internal/randx"
	"crowdassess/internal/sim"
)

// binaryStream generates a synthetic binary crowd from the seed with the
// simulator the paper's experiments use, and returns its responses in
// shuffled order.
func binaryStream(seed int64, workers, tasks int, density float64) ([]dist.Response, error) {
	src := randx.NewSource(seed)
	rates := mixOf(src, workers, sim.DefaultErrorRateChoices)
	ds, _, err := sim.Binary{Tasks: tasks, Workers: workers, Density: density, ErrorRates: rates}.Generate(src)
	if err != nil {
		return nil, err
	}
	var subs []dist.Response
	for w := 0; w < workers; w++ {
		for t := 0; t < tasks; t++ {
			if ds.Attempted(w, t) {
				subs = append(subs, dist.Response{Worker: w, Task: t, Answer: ds.Response(w, t)})
			}
		}
	}
	src.Shuffle(len(subs), func(i, j int) { subs[i], subs[j] = subs[j], subs[i] })
	return subs, nil
}

// taskSource generates a binary crowd's responses one task at a time, as
// a pure function of the seed and the task index, so a stream of any
// length needs no storage and any part of it can be rebuilt.
type taskSource struct {
	seed    uint64
	workers int
	density float64
	errRate []float64
}

// newTaskSource gives each worker an error rate from rates, in equal
// shares.
func newTaskSource(seed int64, workers int, density float64, rates []float64) taskSource {
	errRate := mixOf(randx.NewSource(seed), workers, rates)
	return taskSource{seed: uint64(seed), workers: workers, density: density, errRate: errRate}
}

// mixOf assigns choices to workers in equal shares, in an order drawn
// from src. A fixed mix keeps the amount of work the same from seed to
// seed; the seed still decides which worker is which and every response.
func mixOf[T any](src *randx.Source, workers int, choices []T) []T {
	out := make([]T, workers)
	for w, p := range src.Perm(workers) {
		out[w] = choices[p%len(choices)]
	}
	return out
}

// task appends task t's responses to out: each worker answers with
// probability density, and errs with its error rate.
func (s taskSource) task(t int, out []dist.Response) []dist.Response {
	truth := crowd.Yes
	if mix(s.seed, uint64(t), 0)&1 == 0 {
		truth = crowd.No
	}
	for w := 0; w < s.workers; w++ {
		if s.density < 1 && unit(mix(s.seed, uint64(t), uint64(2*w+1))) >= s.density {
			continue
		}
		ans := truth
		if unit(mix(s.seed, uint64(t), uint64(2*w+2))) < s.errRate[w] {
			ans = crowd.Yes + crowd.No - truth
		}
		out = append(out, dist.Response{Worker: w, Task: t, Answer: ans})
	}
	return out
}

// mix hashes three words with the splitmix64 finalizer.
func mix(a, b, c uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ b*0xbf58476d1ce4e5b9 ^ c*0x94d049bb133111eb
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// unit maps a hash to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
