package combine

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"floorplan/internal/shape"
)

// randomStaircase returns a canonical R-list of exactly n implementations
// with random steps, so cross products of two of them are n² candidates.
func randomStaircase(rng *rand.Rand, n int) shape.RList {
	l := make(shape.RList, n)
	var w, h int64
	for i := n - 1; i >= 0; i-- {
		w += 1 + rng.Int63n(20)
		l[i].W = w
	}
	for i := range l {
		h += 1 + rng.Int63n(20)
		l[i].H = h
	}
	return l
}

// deepCopy copies a combine result into storage of its own.
func deepCopy(r any) any {
	switch r := r.(type) {
	case shape.LSet:
		lists := make([]shape.LList, len(r.Lists))
		for i, l := range r.Lists {
			lists[i] = slices.Clone(l)
		}
		return shape.LSet{Lists: lists}
	case shape.RList:
		return slices.Clone(r)
	}
	panic("deepCopy: not a combine result")
}

// TestPooledBuffersNeverAliasResults pins the contract that lets one pool
// of candidate buffers serve every goroutine and every run: a result owns
// its storage. For each L-block operation, every input is first run
// sequentially and its result deep-copied; many more calls of mixed sizes
// then run from several goroutines, reusing the pooled buffers. Each
// concurrent result must equal its sequential reference, and every
// sequential result must still equal its copy. A result that kept a slice
// of the buffer would be overwritten by a later call.
func TestPooledBuffersNeverAliasResults(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	// Largest first: its buffer goes back to the pool and the smaller calls
	// after it reuse that buffer.
	sizes := []int{24, 3, 11, 1, 17, 6, 14, 9}
	type input struct {
		l    shape.LSet
		a, b shape.RList
	}
	ins := make([]input, len(sizes))
	for i, n := range sizes {
		a, b := randomStaircase(rng, n), randomStaircase(rng, n)
		l, _ := LStack(randomStaircase(rng, n), randomStaircase(rng, n), 0)
		ins[i] = input{l: deepCopy(l).(shape.LSet), a: a, b: b}
	}
	ops := []struct {
		name string
		run  func(in input) any
	}{
		{"LStack", func(in input) any { r, _ := LStack(in.a, in.b, 0); return r }},
		{"LNotch", func(in input) any { r, _ := LNotch(in.l, in.a, 0); return r }},
		{"LBottom", func(in input) any { r, _ := LBottom(in.l, in.a, 0); return r }},
		{"Close", func(in input) any { r, _ := Close(in.l, in.a, 0); return r }},
	}
	for _, op := range ops {
		first := make([]any, len(ins))
		want := make([]any, len(ins))
		for i, in := range ins {
			first[i] = op.run(in)
			want[i] = deepCopy(first[i])
		}
		const goroutines, rounds = 4, 8
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for round := 0; round < rounds; round++ {
					for _, i := range r.Perm(len(ins)) {
						if got := op.run(ins[i]); !reflect.DeepEqual(got, want[i]) {
							t.Errorf("%s: concurrent call on input %d (n=%d) differs from its sequential reference",
								op.name, i, sizes[i])
							return
						}
					}
				}
			}(int64(g))
		}
		wg.Wait()
		for i := range ins {
			if !reflect.DeepEqual(first[i], want[i]) {
				t.Errorf("%s: result on input %d (n=%d) changed after later calls: it aliases a pooled buffer",
					op.name, i, sizes[i])
			}
		}
	}
}
