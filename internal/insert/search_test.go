package insert

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSearchFromMatchesSortSearch: for random non-decreasing inputs,
// searchFrom returns sort.Search's index from every hint, including
// hints outside [0, n], for thresholds below, inside and above the
// values (predicates true everywhere or nowhere).
func TestSearchFromMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(40)
		if trial%50 == 0 {
			n = 1000 + rng.Intn(1000)
		}
		vals := make([]int, n)
		v := 0
		for i := range vals {
			// Runs of equal values, as sites that share a cycle
			// position make.
			if rng.Intn(3) > 0 {
				v += rng.Intn(5)
			}
			vals[i] = v
		}
		thresholds := []int{-1, 0, v, v + 1}
		for k := 0; k < 10; k++ {
			thresholds = append(thresholds, rng.Intn(v+2))
		}
		hints := []int{-5, -1, n, n + 1, n + 100}
		for h := 0; h < n; h++ {
			if n < 100 || rng.Intn(40) == 0 {
				hints = append(hints, h)
			}
		}
		for _, x := range thresholds {
			calls := 0
			f := func(k int) bool {
				calls++
				if k < 0 || k >= n {
					t.Fatalf("n=%d x=%d: probe %d out of range", n, x, k)
				}
				return vals[k] >= x
			}
			want := sort.Search(n, f)
			for _, h := range hints {
				if got := searchFrom(n, h, f); got != want {
					t.Fatalf("n=%d x=%d hint=%d: searchFrom = %d, sort.Search = %d", n, x, h, got, want)
				}
			}
			// A hint at the answer settles the search in at most two
			// probes.
			calls = 0
			searchFrom(n, want, f)
			if calls > 2 {
				t.Errorf("n=%d x=%d: %d probes from the answer itself", n, x, calls)
			}
		}
	}
	for _, n := range []int{0, 1, 7} {
		for _, h := range []int{-1, 0, n / 2, n, n + 1} {
			if got := searchFrom(n, h, func(int) bool { return true }); got != 0 {
				t.Errorf("n=%d hint=%d, true everywhere: %d, want 0", n, h, got)
			}
			if got := searchFrom(n, h, func(int) bool { return false }); got != n {
				t.Errorf("n=%d hint=%d, true nowhere: %d, want %d", n, h, got, n)
			}
		}
	}
}
