package schedule

import (
	"math"
	"sort"
)

// optMaxTree is a lazy segment tree over a residency profile: it adds a
// constant to a range of points and answers the maximum over a range,
// each in O(log n). The optimizer's capacity proofs are exactly these
// two queries — "is there a free slot at every point of this gap" and
// "the kept line now occupies one more slot across it" — so one tree
// per chip (shared level) and one per core (core level) replaces
// rescanning and raising the gap point by point.
//
// The layout is the iterative one: leaves at t[size:], internal node p
// covering the union of 2p and 2p+1, with t[p] the maximum of its
// subtree including d[p], the addition still pending for p's children.
type optMaxTree struct {
	size   int // leaf count, a power of two
	height int // log2(size)
	t      []int32
	d      []int32
}

// newOptMaxTree builds the tree over a copy of base.
func newOptMaxTree(base []int32) *optMaxTree {
	m := &optMaxTree{size: 1}
	for m.size < len(base) {
		m.size <<= 1
		m.height++
	}
	m.t = make([]int32, 2*m.size)
	m.d = make([]int32, m.size)
	copy(m.t[m.size:], base)
	for p := m.size - 1; p > 0; p-- {
		m.t[p] = max(m.t[2*p], m.t[2*p+1])
	}
	return m
}

func (m *optMaxTree) apply(p int, v int32) {
	m.t[p] += v
	if p < m.size {
		m.d[p] += v
	}
}

// pull recomputes the ancestors of node p after its subtree changed.
func (m *optMaxTree) pull(p int) {
	for p > 1 {
		p >>= 1
		m.t[p] = max(m.t[2*p], m.t[2*p+1]) + m.d[p]
	}
}

// push hands every pending addition on the path to node p down to the
// children, so t[p] and its ancestors' siblings read true values.
func (m *optMaxTree) push(p int) {
	for s := m.height; s > 0; s-- {
		if i := p >> s; m.d[i] != 0 {
			m.apply(2*i, m.d[i])
			m.apply(2*i+1, m.d[i])
			m.d[i] = 0
		}
	}
}

// add adds v to every point of [lo, hi).
func (m *optMaxTree) add(lo, hi int, v int32) {
	if lo >= hi {
		return
	}
	l, r := lo+m.size, hi+m.size
	for ; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			m.apply(l, v)
			l++
		}
		if r&1 == 1 {
			r--
			m.apply(r, v)
		}
	}
	m.pull(lo + m.size)
	m.pull(hi - 1 + m.size)
}

// max returns the maximum over [lo, hi), or math.MinInt32 when the
// range is empty.
func (m *optMaxTree) max(lo, hi int) int32 {
	res := int32(math.MinInt32)
	if lo >= hi {
		return res
	}
	l, r := lo+m.size, hi+m.size
	m.push(l)
	m.push(r - 1)
	for ; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			res = max(res, m.t[l])
			l++
		}
		if r&1 == 1 {
			r--
			res = max(res, m.t[r])
		}
	}
	return res
}

// optIndexUses fills the next* fields of one line's uses, right to
// left, so optForeignUse answers in O(1) after a binary search.
func optIndexUses(us []optUse) {
	n := int32(len(us))
	nextWrite := n // first write strictly after the current index
	for j := n - 1; j >= 0; j-- {
		u := &us[j]
		u.nextForeign = n
		if j+1 < n {
			if us[j+1].core != u.core {
				u.nextForeign = j + 1
			} else {
				u.nextForeign = us[j+1].nextForeign
			}
		}
		if u.flags&optUseWrite != 0 {
			u.nextForeignWrite = n
			if nextWrite < n {
				if w := &us[nextWrite]; w.core != u.core {
					u.nextForeignWrite = nextWrite
				} else {
					u.nextForeignWrite = w.nextForeignWrite
				}
			}
			nextWrite = j
		}
		u.nextWrite = nextWrite
	}
}

// optForeignUse reports whether a core other than core uses the line in
// items lo..hi inclusive — writes only when writesOnly. us must have
// been indexed by optIndexUses.
func optForeignUse(us []optUse, core, lo, hi int32, writesOnly bool) bool {
	n := len(us)
	j := sort.Search(n, func(i int) bool { return us[i].item >= lo })
	if j < n && writesOnly {
		j = int(us[j].nextWrite)
	}
	if j >= n || us[j].item > hi {
		return false
	}
	if us[j].core != core {
		return true
	}
	// us[j] is core's own: the first candidate of another core is the
	// next foreign use (or write) after it.
	if writesOnly {
		j = int(us[j].nextForeignWrite)
	} else {
		j = int(us[j].nextForeign)
	}
	return j < n && us[j].item <= hi
}
