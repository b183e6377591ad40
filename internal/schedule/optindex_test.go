package schedule

import (
	"math"
	"math/rand"
	"testing"
)

// TestOptMaxTreeMatchesNaive drives the capacity tree with random
// range-add / range-max sequences and checks every answer against the
// plain array it replaces, over lengths that are and are not powers of
// two, with empty, single-point and full ranges mixed in.
func TestOptMaxTreeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 31, 64, 100, 257} {
		naive := make([]int32, n)
		for i := range naive {
			naive[i] = int32(rng.Intn(20))
		}
		tree := newOptMaxTree(naive)
		naiveMax := func(lo, hi int) int32 {
			res := int32(math.MinInt32)
			for i := lo; i < hi; i++ {
				res = max(res, naive[i])
			}
			return res
		}
		randRange := func() (int, int) {
			switch rng.Intn(5) {
			case 0: // empty
				i := rng.Intn(n + 1)
				return i, i
			case 1: // single point
				if n == 0 {
					return 0, 0
				}
				i := rng.Intn(n)
				return i, i + 1
			case 2: // full
				return 0, n
			}
			lo, hi := rng.Intn(n+1), rng.Intn(n+1)
			if lo > hi {
				lo, hi = hi, lo
			}
			return lo, hi
		}
		for step := 0; step < 2000; step++ {
			lo, hi := randRange()
			if rng.Intn(2) == 0 {
				v := int32(rng.Intn(7) - 3)
				tree.add(lo, hi, v)
				for i := lo; i < hi; i++ {
					naive[i] += v
				}
				continue
			}
			if got, want := tree.max(lo, hi), naiveMax(lo, hi); got != want {
				t.Fatalf("n=%d step %d: max[%d,%d) = %d, want %d", n, step, lo, hi, got, want)
			}
		}
		for i := 0; i < n; i++ {
			if got := tree.max(i, i+1); got != naive[i] {
				t.Fatalf("n=%d: point %d = %d, want %d", n, i, got, naive[i])
			}
		}
	}
}

// TestOptForeignUseMatchesNaive checks the core pass's blocker query
// against the linear window scan it replaces, on random use lists of
// one line: items nondecreasing, a few cores, reads and writes mixed,
// and windows that are empty, single-item, past either end or whole.
func TestOptForeignUseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(12)
		us := make([]optUse, n)
		item := int32(0)
		for i := range us {
			item += int32(rng.Intn(3))
			us[i] = optUse{item: item, core: int32(rng.Intn(3)), flags: optUseRead}
			if rng.Intn(2) == 0 {
				us[i].flags = optUseWrite
			}
		}
		optIndexUses(us)
		naive := func(core, lo, hi int32, writesOnly bool) bool {
			for _, u := range us {
				if u.item >= lo && u.item <= hi && u.core != core && (!writesOnly || u.flags&optUseWrite != 0) {
					return true
				}
			}
			return false
		}
		for q := 0; q < 50; q++ {
			core := int32(rng.Intn(3))
			lo := int32(rng.Intn(int(item)+3)) - 1
			hi := lo + int32(rng.Intn(int(item)+2)) - 1
			writesOnly := rng.Intn(2) == 0
			if got, want := optForeignUse(us, core, lo, hi, writesOnly), naive(core, lo, hi, writesOnly); got != want {
				t.Fatalf("uses %+v: core %d window [%d,%d] writesOnly=%v: got %v, want %v",
					us, core, lo, hi, writesOnly, got, want)
			}
		}
	}
}
