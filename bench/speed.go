package main

import (
	"crypto/sha256"
	"math/rand"
	"slices"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by 10-30% over
// minutes as neighbours come and go, and the drift moves every timing of a
// run together. So that it does not read as a regression, the benchmark
// times a fixed reference kernel (sorting a permutation and hashing a
// buffer, using nothing from this repository) whenever the code under test
// is idle, and reports timings in reference milliseconds: the measured time
// scaled by nominalKernel over the kernel's time measured next to it. On
// the calibration host (README.md) a reference millisecond is about a wall
// millisecond; each run reports the scale it applied as machine.speed.

// nominalKernel is the kernel's median time on the calibration host.
const nominalKernel = 6 * time.Millisecond

// speedometer times the reference kernel and keeps every sample of a run.
// The kernel runs on the caller's goroutine, so right after an operation it
// most likely times the CPU the operation ran on: the CPUs of a shared host
// need not run at one speed, and timing several goroutines at once instead
// mostly measures how the host paired them on its cores.
type speedometer struct {
	src, buf []int
	data     []byte
	sink     [32]byte
	samples  []float64 // kernel times, ms
}

func newSpeedometer() *speedometer {
	const n = 1 << 16
	data := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	return &speedometer{src: rng.Perm(n), buf: make([]int, n), data: data, samples: make([]float64, 0, 1<<14)}
}

// sample runs the kernel n times and returns the scale those runs imply.
// The kernel allocates nothing, so it leaves the allocation metrics alone.
func (s *speedometer) sample(n int) float64 {
	start := len(s.samples)
	for range n {
		t := time.Now()
		copy(s.buf, s.src)
		slices.Sort(s.buf)
		s.sink = sha256.Sum256(s.data)
		s.samples = append(s.samples, ms(time.Since(t)))
	}
	return scaleOf(s.samples[start:])
}

// since returns the scale implied by the samples taken after the first
// mark of them.
func (s *speedometer) since(mark int) float64 { return scaleOf(s.samples[mark:]) }

// scale is the run's overall scale, from the median of all its samples.
func (s *speedometer) scale() float64 {
	if len(s.samples) == 0 {
		s.sample(5)
	}
	return scaleOf(s.samples)
}

func scaleOf(kernelMs []float64) float64 {
	return ms(nominalKernel) / median(append([]float64(nil), kernelMs...))
}

// scaleTimes rescales every time-valued metric in v by f.
func scaleTimes(v map[string]float64, f float64) {
	for name, x := range v {
		switch unitOf(name) {
		case "s", "ms", "us":
			v[name] = x * f
		}
	}
}
