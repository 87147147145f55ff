package dsp

import "sync"

// The decode hot path conditions ~90 channel series per trial, each needing
// a same-length scratch slice (the prefix sums of the conditioning pass),
// and the streaming decoder keeps its frame arena and conditioned series in
// pooled slices too. Allocating those per call dominated the allocation
// profile, so scratch buffers come from a shared sync.Pool instead. Only
// buffers that never escape their function (or that callers explicitly
// return with PutSlice) are pooled; results handed to callers remain
// freshly allocated unless the caller opted into an Into variant.
//
// sync.Pool stores interface values, and a []float64 header does not fit
// in one without a heap box, so the pool holds *[]float64. Boxing a fresh
// pointer on every PutSlice would cost one allocation per release, and
// those allocations' garbage collections would empty the pool itself.
// The emptied boxes therefore circulate through a second pool: GetSlice
// hands back the box it unwrapped, and PutSlice refills one.

// slicePool recycles float64 scratch buffers as *[]float64; boxPool
// recycles the empty *[]float64 boxes slicePool's entries travel in.
var slicePool, boxPool sync.Pool

// GetSlice returns a zeroed slice of length n, reusing a pooled buffer
// when one with enough capacity is available. Return it with PutSlice
// when done; forgetting to is safe (the GC reclaims it) but forfeits the
// reuse.
func GetSlice(n int) []float64 {
	if v := slicePool.Get(); v != nil {
		box := v.(*[]float64)
		s := *box
		*box = nil
		boxPool.Put(box)
		if cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]float64, n)
}

// PutSlice returns a buffer obtained from GetSlice to the pool. The
// caller must not use s afterwards.
func PutSlice(s []float64) {
	if cap(s) == 0 {
		return
	}
	box, _ := boxPool.Get().(*[]float64)
	if box == nil {
		box = new([]float64)
	}
	*box = s[:0]
	slicePool.Put(box)
}
