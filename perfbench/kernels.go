package main

import (
	"math/rand"
	"time"

	"repro/internal/bits"
	"repro/internal/f2"
	"repro/internal/semiring"
	"repro/internal/sketch"
)

// kernelN is the large-n workload's node count: each kernel is timed on
// the operand shape that workload hands it.
const kernelN = 96

// kernelSink keeps timed results alive so the calls are not removed.
var kernelSink any

// timeKernel returns the median time of one call of f over seven
// batches, each grown until it lasts at least 10 ms.
func timeKernel(f func()) float64 {
	batch := 1
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		if time.Since(start) >= 10*time.Millisecond {
			break
		}
		batch *= 2
	}
	per := make([]float64, 7)
	for r := range per {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per[r] = float64(time.Since(start)) / float64(batch)
	}
	return median(per)
}

// runKernels times the kernels in isolation at the large-n shape, each
// beside the bytes one call reads and writes, after checking each
// against its reference implementation.
func runKernels(seed int64, chk *Check, out Metrics) {
	rng := rand.New(rand.NewSource(seed))

	a, b := semiring.Random(kernelN, kernelN, 1000, rng), semiring.Random(kernelN, kernelN, 1000, rng)
	minPlus := semiring.Kernel(semiring.MinPlus)
	if !minPlus(a, b).Equal(semiring.NaiveMul(semiring.MinPlus, a, b)) {
		chk.problem("kernel semiring.minplus disagrees with the naive product")
	}
	out.Set("semiring.minplus_ns", "ns", timeKernel(func() { kernelSink = minPlus(a, b) }))
	out.Set("semiring.minplus_bytes", "B", 3*kernelN*kernelN*4)

	fa, fb := f2.Random(kernelN, rng), f2.Random(kernelN, rng)
	if !f2.BoolMulM4R(fa, fb).Equal(f2.BoolMul(fa, fb)) {
		chk.problem("kernel f2.BoolMulM4R disagrees with f2.BoolMul")
	}
	rowWords := (kernelN + 63) / 64
	out.Set("f2.boolmul_m4r_ns", "ns", timeKernel(func() { kernelSink = f2.BoolMulM4R(fa, fb) }))
	out.Set("f2.boolmul_m4r_bytes", "B", float64(3*kernelN*rowWords*8))

	universe := sketch.EdgeUniverse(kernelN)
	stateBytes := float64(3 * sketch.SamplerLevels(universe) * 8)
	s := sketch.NewSampler(universe, sketch.DefaultFpBits, uint64(seed))
	o := sketch.NewSampler(universe, sketch.DefaultFpBits, uint64(seed))
	both := sketch.NewSampler(universe, sketch.DefaultFpBits, uint64(seed))
	for i := 0; i < kernelN; i++ {
		x, y := uint64(rng.Intn(universe)), uint64(rng.Intn(universe))
		s.Toggle(x)
		o.Toggle(y)
		both.Toggle(x)
		both.Toggle(y)
	}
	// Merging is the sketch of the symmetric difference: toggling both
	// item sets into one sampler must give the same state.
	merged := s.Clone()
	merged.Merge(o)
	if !merged.Equal(both) {
		chk.problem("kernel sketch.Merge disagrees with toggling both item sets")
	}
	out.Set("sketch.merge_ns", "ns", timeKernel(func() { s.Merge(o) }))
	out.Set("sketch.merge_bytes", "B", 3*stateBytes)

	one := sketch.NewSampler(universe, sketch.DefaultFpBits, uint64(seed))
	item := uint64(rng.Intn(universe))
	one.Toggle(item)
	if got, ok := one.Recover(); !ok || got != item {
		chk.problem("kernel sketch.Recover returned %d,%v for the one-item set {%d}", got, ok, item)
	}
	out.Set("sketch.recover_ns", "ns", timeKernel(func() { kernelSink, _ = one.Recover() }))
	out.Set("sketch.recover_bytes", "B", stateBytes)

	// One 96×96 bit matrix, the row block the sketch and F2 layers XOR.
	words := kernelN * rowWords
	dst, src := make([]uint64, words), make([]uint64, words)
	for i := range src {
		src[i] = rng.Uint64()
	}
	bits.XorWords(dst, src)
	for i := range dst {
		if dst[i] != src[i] {
			chk.problem("kernel bits.XorWords: word %d is wrong", i)
			break
		}
	}
	out.Set("bits.xorwords_ns", "ns", timeKernel(func() { bits.XorWords(dst, src) }))
	out.Set("bits.xorwords_bytes", "B", float64(3*words*8))
}
