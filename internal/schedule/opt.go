package schedule

// This file is the residency-aware schedule optimizer: a liveness pass
// over the recorded op stream that elides restaging the machine never
// needed. The paper's cost model charges every block crossing the MS
// (memory↔shared) and MD (shared↔core) streams; emitters, written as
// per-region loop nests, routinely unstage a line only to restage the
// same line a few regions later. With exact per-chip capacity
// accounting (CheckCapacity) the pass can prove, point by point along
// the program, that keeping such a line resident never exceeds the
// declared cache — so the elision is free capacity-wise and strictly
// cheaper traffic-wise.
//
// Three rewrites, all elisions (the pass never adds or reorders ops):
//
//  a. shared keep-resident: an UnstageShared(l) whose next event on l
//     is a StageShared(l), with no reference to l in between, is
//     dropped together with that restage when the line's home chip has
//     a free slot across the whole gap;
//  b. core refill elision: a core's Unstage(l) followed by its own
//     re-Stage(l) is dropped when the upstream copy provably cannot
//     have changed in between (no surviving driver op on l, no other
//     core writing — or, for a dirty hold, touching — the line);
//  c. dirty writebacks sink to the final unstage for free: eliding an
//     intermediate unstage leaves the arena slot resident and dirty,
//     so the one writeback happens at the surviving last unstage.
//
// The pass is conservative by construction — any stream it cannot
// prove well-formed (the verifier's linear-staging, def-before-use and
// residency rules, re-derived here) is returned unchanged — and it is
// not trusted: Optimize re-measures the rewritten program and fails
// loudly if the footprint violates CheckCapacity or the op accounting
// does not balance. The test suites additionally pin every optimized
// program to its baseline bitwise through the simulator and the real
// executor.
//
// Cost: near-linear in program size. Every Line is interned once into
// a dense id, so all residency, blocker and event state is a slice
// indexed by id; each capacity proof is a range-max and each commit a
// range-add on a segment tree over the residency profile (optindex.go),
// O(log n) instead of a walk over the gap; and the core pass's
// other-core-use query is O(log u) in the line's use count u. The only
// superlinear steps are those binary searches and sorting the (core,
// line) chains once for the core pass's commit order.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// OptimizeOptions selects which elision passes run. The zero value
// enables everything.
type OptimizeOptions struct {
	// NoSharedResidency disables the shared keep-resident pass (and
	// with it the writeback sinking it implies).
	NoSharedResidency bool
	// NoCoreReuse disables the per-core refill-elision pass.
	NoCoreReuse bool
}

// OptimizeCounts is the stage/writeback ledger of one cache level (or
// one chip's slice of it): every baseline operation is either elided
// or kept, so BaselineStages == ElidedStages + KeptStages and likewise
// for writebacks — an identity Optimize itself enforces.
type OptimizeCounts struct {
	BaselineStages     uint64 // fills the unoptimized program performs
	ElidedStages       uint64 // fills the pass removed
	KeptStages         uint64 // fills the optimized program performs
	BaselineWriteBacks uint64 // dirty writebacks of the unoptimized program
	ElidedWriteBacks   uint64 // writebacks removed (sunk into a later one)
	KeptWriteBacks     uint64 // writebacks the optimized program performs
}

func (c *OptimizeCounts) add(d OptimizeCounts) {
	c.BaselineStages += d.BaselineStages
	c.ElidedStages += d.ElidedStages
	c.KeptStages += d.KeptStages
	c.BaselineWriteBacks += d.BaselineWriteBacks
	c.ElidedWriteBacks += d.ElidedWriteBacks
	c.KeptWriteBacks += d.KeptWriteBacks
}

// OptimizeReport accounts for what the pass did. When SkipReason is
// non-empty the program was returned unchanged without analysis
// (demand-driven, malformed, or failing the pass's well-formedness
// scan) and every count is zero; when it is empty the counts are the
// full ledger whether or not anything was elided.
type OptimizeReport struct {
	Shared OptimizeCounts // memory↔shared (MS) level, all chips
	Core   OptimizeCounts // shared↔core (MD) level, all chips

	// SharedPerChip slices the MS ledger by the line's home chip,
	// CorePerChip slices the MD ledger by the staging core's chip; both
	// have the program's declared chip count (1 when undeclared).
	SharedPerChip []OptimizeCounts
	CorePerChip   []OptimizeCounts

	// Changed reports whether Optimize returned a rewritten program;
	// false means the original pointer came back (nothing elidable, or
	// SkipReason explains why analysis never ran).
	Changed bool
	// SkipReason is why the program was left untouched without
	// analysis; empty when the pass ran to completion.
	SkipReason string
}

// TotalElided is the number of staging operations removed at both
// levels — a quick "did it do anything" signal for logs and lints.
func (r OptimizeReport) TotalElided() uint64 {
	return r.Shared.ElidedStages + r.Core.ElidedStages
}

// recorded op stream -------------------------------------------------

type optOpKind uint8

const (
	optStage optOpKind = iota
	optUnstage
	optRead
	optWrite
	optApply
	optCompute
)

// optCoreOp is one recorded core op. Lines are optimizer-local ids into
// the recorder's table: line is the operand of Stage/Unstage/Read/Write
// and the destination of optApply/optCompute, srcs[:nsrc] the sources.
// Compute keeps its original (i,j,k) so replay re-emits the exact
// historical shorthand the backends expect.
type optCoreOp struct {
	kind       optOpKind
	kernel     Kernel
	nsrc       uint8
	drop       bool
	line       uint32
	srcs       [2]uint32
	ci, cj, ck int32
}

type optDriverOp struct {
	line  uint32
	stage bool
	drop  bool
}

// optItem is one program-order step: a driver op (region < 0), or the
// index of one parallel region holding every core's recorded stream
// (see optRecorder.span).
type optItem struct {
	driver optDriverOp
	region int32
}

// optArity mirrors Kernel.Arity without its panic: the recorder must
// survive arbitrary (fuzzed) streams and turn malformed kernels into a
// skip, not a fault.
func optArity(k Kernel) (int, bool) {
	switch k {
	case MulAdd, MulSub:
		return 2, true
	case FactorTile:
		return 0, true
	case TrsmLowerLeftUnit, TrsmUpperRight:
		return 1, true
	}
	return 0, false
}

// optRecorder captures a program's op stream into optItems. Each Line
// is interned once into a dense id (table maps it back), so every later
// pass indexes slices instead of hashing coordinates. The core ops of
// all regions are stored back to back in ops: the recorder drives the
// cores of a region one after another, so core c's stream of region r
// is the contiguous span ops[bounds[r·cores+c] : bounds[r·cores+c+1]].
//
// Any malformation that would make replay unfaithful (driver ops inside
// a region, nested regions, core ops outside one, unknown kernels)
// poisons the recording and Optimize returns the program unchanged.
type optRecorder struct {
	cores    int
	items    []optItem
	ops      []optCoreOp
	bounds   []int32
	regions  int32
	ids      map[Line]uint32
	table    []Line
	inRegion bool
	bad      string
}

var (
	_ Backend  = (*optRecorder)(nil)
	_ CoreSink = (*optRecorder)(nil)
)

func newOptRecorder(cores int) *optRecorder {
	return &optRecorder{cores: cores, bounds: []int32{0}, ids: make(map[Line]uint32)}
}

func (r *optRecorder) fail(reason string) {
	if r.bad == "" {
		r.bad = reason
	}
}

func (r *optRecorder) intern(l Line) uint32 {
	if id, ok := r.ids[l]; ok {
		return id
	}
	id := uint32(len(r.table))
	r.ids[l] = id
	r.table = append(r.table, l)
	return id
}

// span returns the op index range of core c's stream in region reg.
func (r *optRecorder) span(reg int32, c int) (lo, hi int32) {
	b := int(reg)*r.cores + c
	return r.bounds[b], r.bounds[b+1]
}

func (r *optRecorder) driver(stage bool, l Line) {
	if r.inRegion {
		r.fail("driver op inside a parallel region")
		return
	}
	r.items = append(r.items, optItem{driver: optDriverOp{stage: stage, line: r.intern(l)}, region: -1})
}

func (r *optRecorder) StageShared(l Line)   { r.driver(true, l) }
func (r *optRecorder) UnstageShared(l Line) { r.driver(false, l) }

func (r *optRecorder) Parallel(body func(core int, ops CoreSink)) {
	if r.inRegion {
		r.fail("nested parallel region")
		return
	}
	r.inRegion = true
	for c := 0; c < r.cores; c++ {
		body(c, r)
		r.bounds = append(r.bounds, int32(len(r.ops)))
	}
	r.inRegion = false
	r.items = append(r.items, optItem{region: r.regions})
	r.regions++
}

func (r *optRecorder) core(op optCoreOp) {
	if !r.inRegion {
		r.fail("core op outside a parallel region")
		return
	}
	if len(r.ops) == cap(r.ops) {
		// Double rather than let append grow by 1.25×: the recording is
		// the optimizer's largest buffer, and every regrowth copies it.
		r.ops = append(make([]optCoreOp, 0, 2*cap(r.ops)+1024), r.ops...)
	}
	r.ops = append(r.ops, op)
}

func (r *optRecorder) Stage(l Line)   { r.core(optCoreOp{kind: optStage, line: r.intern(l)}) }
func (r *optRecorder) Unstage(l Line) { r.core(optCoreOp{kind: optUnstage, line: r.intern(l)}) }
func (r *optRecorder) Read(l Line)    { r.core(optCoreOp{kind: optRead, line: r.intern(l)}) }
func (r *optRecorder) Write(l Line)   { r.core(optCoreOp{kind: optWrite, line: r.intern(l)}) }

func (r *optRecorder) Apply(k Kernel, dest Line, srcs ...Line) {
	ar, ok := optArity(k)
	if !ok {
		r.fail(fmt.Sprintf("unknown kernel %v", k))
		return
	}
	if len(srcs) != ar {
		r.fail(fmt.Sprintf("%v applied to %d sources, want %d", k, len(srcs), ar))
		return
	}
	op := optCoreOp{kind: optApply, kernel: k, line: r.intern(dest), nsrc: uint8(ar)}
	for i, s := range srcs {
		op.srcs[i] = r.intern(s)
	}
	r.core(op)
}

func (r *optRecorder) Compute(i, j, k int) {
	if int(int32(i)) != i || int(int32(j)) != j || int(int32(k)) != k {
		r.fail(fmt.Sprintf("compute coordinates (%d,%d,%d) out of range", i, j, k))
		return
	}
	r.core(optCoreOp{
		kind: optCompute, kernel: MulAdd,
		line: r.intern(LineC(i, j)), nsrc: 2,
		srcs: [2]uint32{r.intern(LineA(i, k)), r.intern(LineB(k, j))},
		ci:   int32(i), cj: int32(j), ck: int32(k),
	})
}

// analysis ------------------------------------------------------------

const (
	optUseRead uint8 = 1 << iota
	optUseWrite
)

// optUse is one region-level reference to a line: which item, which
// core, read or write. Uses are the blocker index of both passes — a
// shared gap may not contain any, and a core-reuse window may not
// contain a conflicting one from another core. The next* fields are
// that second query's index, filled by optIndexUses.
type optUse struct {
	item  int32
	core  int32
	flags uint8
	// nextForeign is the next use by a core other than this use's,
	// nextWrite the first write at or after this use, and — on writes
	// only — nextForeignWrite the next write by another core; len(uses)
	// when there is none.
	nextForeign, nextWrite, nextForeignWrite int32
}

// optCoreEvent is one Stage/Unstage of a line by one core: its position
// in that core's flattened op stream (for the capacity profile), the
// item and op index (for drop marking), and — for unstages — whether
// the hold being closed was dirty.
type optCoreEvent struct {
	pos   int32
	item  int32
	op    int32
	stage bool
	dirty bool
}

// optCoreChain is one core's alternating stage/unstage events on one
// line.
type optCoreChain struct {
	core int32
	line uint32
	evts []optCoreEvent
}

// Residency states of a line in one cache, as a byte per line id.
const (
	optAbsent uint8 = iota
	optClean
	optDirty
)

type optAnalysis struct {
	chips      int
	sharedProg bool
	coreProg   bool

	// resBefore[chip][item] is the baseline shared residency of that
	// chip immediately before item executes; coreResBefore[core][pos]
	// likewise for one core's flattened stream. The passes prove
	// capacity pointwise against these profiles plus their own
	// committed extras.
	resBefore     [][]int32
	coreResBefore [][]int32

	sharedPeak []int
	corePeak   int
	computes   uint64

	// Indexed by line id: driver item indices per line, alternating
	// stage/unstage, and every region-level use in program order.
	sharedEvents [][]int32
	lineUses     [][]optUse
	// chains holds every (core, line) stage/unstage chain, in the order
	// their first stage was seen.
	chains []optCoreChain

	sharedStages   []uint64 // per home chip
	sharedUnstages []uint64
	coreStages     []uint64 // per staging core's chip
	coreUnstages   []uint64
}

func (a *optAnalysis) addUse(item, core int32, l uint32, flags uint8) {
	us := a.lineUses[l]
	if n := len(us); n > 0 && us[n-1].item == item && us[n-1].core == core {
		us[n-1].flags |= flags
		return
	}
	a.lineUses[l] = append(us, optUse{item: item, core: core, flags: flags})
}

// optCoreState is one core's residency during the scan: a state byte
// per line id (allocated when the core first stages), the resident
// count, and the index+1 of each line's chain in optAnalysis.chains.
type optCoreState struct {
	resident []uint8
	chainOf  []int32
	count    int
}

func (st *optCoreState) state(l uint32) uint8 {
	if st.resident == nil {
		return optAbsent
	}
	return st.resident[l]
}

// optAnalyze scans the recorded stream once, building the blocker and
// capacity indexes while re-deriving the verifier's well-formedness
// rules. Any violation returns a reason and the pass gives up: only
// streams proven linear (alternating stage/unstage per line and level,
// no leaks, no use of an unstaged line, no unstage of a held line, no
// stage of a line another core holds dirty) are ever rewritten.
func optAnalyze(p *Program, rec *optRecorder) (*optAnalysis, string) {
	chips := p.Resources.ChipCount()
	nl := len(rec.table)
	a := &optAnalysis{
		chips:          chips,
		resBefore:      make([][]int32, chips),
		coreResBefore:  make([][]int32, p.Cores),
		sharedPeak:     make([]int, chips),
		sharedEvents:   make([][]int32, nl),
		lineUses:       make([][]optUse, nl),
		sharedStages:   make([]uint64, chips),
		sharedUnstages: make([]uint64, chips),
		coreStages:     make([]uint64, chips),
		coreUnstages:   make([]uint64, chips),
	}
	for ch := range a.resBefore {
		a.resBefore[ch] = make([]int32, len(rec.items))
	}
	for _, it := range rec.items {
		if it.region < 0 {
			a.sharedProg = true
			break
		}
	}
	for i := range rec.ops {
		if k := rec.ops[i].kind; k == optStage || k == optUnstage {
			a.coreProg = true
			break
		}
	}
	perCore := make([]int, p.Cores)
	for reg := int32(0); reg < rec.regions; reg++ {
		for c := range perCore {
			lo, hi := rec.span(reg, c)
			perCore[c] += int(hi - lo)
		}
	}
	for c, n := range perCore {
		a.coreResBefore[c] = make([]int32, 0, n)
	}

	sharedRes := make([]bool, nl)
	sharedCount := 0
	res := make([]int32, chips)
	holders := make([]int32, nl)
	dirtyBy := make([]int32, nl) // the core holding the line dirty, or -1
	for i := range dirtyBy {
		dirtyBy[i] = -1
	}
	cores := make([]optCoreState, p.Cores)
	line := func(l uint32) Line { return rec.table[l] }

	for t, it := range rec.items {
		t32 := int32(t)
		for ch := 0; ch < chips; ch++ {
			a.resBefore[ch][t] = res[ch]
		}
		if it.region < 0 {
			d := it.driver
			ch := p.HomeOf(line(d.line))
			if d.stage {
				if sharedRes[d.line] {
					return nil, fmt.Sprintf("shared double stage of %v", line(d.line))
				}
				sharedRes[d.line] = true
				sharedCount++
				res[ch]++
				if int(res[ch]) > a.sharedPeak[ch] {
					a.sharedPeak[ch] = int(res[ch])
				}
				a.sharedStages[ch]++
			} else {
				if !sharedRes[d.line] {
					return nil, fmt.Sprintf("shared unstage of non-resident %v", line(d.line))
				}
				if holders[d.line] > 0 {
					return nil, fmt.Sprintf("shared unstage of %v while a core holds it", line(d.line))
				}
				sharedRes[d.line] = false
				sharedCount--
				res[ch]--
				a.sharedUnstages[ch]++
			}
			a.sharedEvents[d.line] = append(a.sharedEvents[d.line], t32)
			continue
		}
		for c := range cores {
			st := &cores[c]
			c32 := int32(c)
			chip := p.ChipOfCore(c)
			lo, hi := rec.span(it.region, c)
			for oi := lo; oi < hi; oi++ {
				op := &rec.ops[oi]
				pos := int32(len(a.coreResBefore[c]))
				a.coreResBefore[c] = append(a.coreResBefore[c], int32(st.count))
				l := op.line
				switch op.kind {
				case optStage:
					if st.state(l) != optAbsent {
						return nil, fmt.Sprintf("core %d double stage of %v", c, line(l))
					}
					if a.sharedProg && !sharedRes[l] {
						return nil, fmt.Sprintf("core %d stage of %v while not shared-resident", c, line(l))
					}
					if d := dirtyBy[l]; d >= 0 && d != c32 {
						return nil, fmt.Sprintf("core %d stage of %v held dirty by core %d", c, line(l), d)
					}
					if st.resident == nil {
						st.resident = make([]uint8, nl)
						st.chainOf = make([]int32, nl)
					}
					st.resident[l] = optClean
					st.count++
					if st.count > a.corePeak {
						a.corePeak = st.count
					}
					holders[l]++
					a.coreStages[chip]++
					if st.chainOf[l] == 0 {
						a.chains = append(a.chains, optCoreChain{core: c32, line: l})
						st.chainOf[l] = int32(len(a.chains))
					}
					ch := &a.chains[st.chainOf[l]-1]
					ch.evts = append(ch.evts, optCoreEvent{pos: pos, item: t32, op: oi, stage: true})
					a.addUse(t32, c32, l, optUseRead)
				case optUnstage:
					s := st.state(l)
					if s == optAbsent {
						return nil, fmt.Sprintf("core %d unstage of non-resident %v", c, line(l))
					}
					dirty := s == optDirty
					st.resident[l] = optAbsent
					st.count--
					holders[l]--
					if dirty && dirtyBy[l] == c32 {
						dirtyBy[l] = -1
					}
					a.coreUnstages[chip]++
					ch := &a.chains[st.chainOf[l]-1]
					ch.evts = append(ch.evts, optCoreEvent{pos: pos, item: t32, op: oi, dirty: dirty})
					if dirty {
						a.addUse(t32, c32, l, optUseWrite)
					} else {
						a.addUse(t32, c32, l, optUseRead)
					}
				case optRead:
					a.addUse(t32, c32, l, optUseRead)
				case optWrite:
					a.addUse(t32, c32, l, optUseWrite)
				case optApply, optCompute:
					srcs := op.srcs[:op.nsrc]
					if a.coreProg {
						if st.state(l) == optAbsent {
							return nil, fmt.Sprintf("core %d applies %v to unstaged %v", c, op.kernel, line(l))
						}
						for _, src := range srcs {
							if st.state(src) == optAbsent {
								return nil, fmt.Sprintf("core %d applies %v reading unstaged %v", c, op.kernel, line(src))
							}
						}
						st.resident[l] = optDirty
						dirtyBy[l] = c32
					} else if a.sharedProg {
						if !sharedRes[l] {
							return nil, fmt.Sprintf("core %d applies %v to non-shared-resident %v", c, op.kernel, line(l))
						}
						for _, src := range srcs {
							if !sharedRes[src] {
								return nil, fmt.Sprintf("core %d applies %v reading non-shared-resident %v", c, op.kernel, line(src))
							}
						}
					}
					a.computes++
					for _, src := range srcs {
						a.addUse(t32, c32, src, optUseRead)
					}
					a.addUse(t32, c32, l, optUseWrite)
				}
			}
		}
	}
	if sharedCount > 0 {
		return nil, fmt.Sprintf("%d shared lines leaked at exit", sharedCount)
	}
	for c := range cores {
		if cores[c].count > 0 {
			return nil, fmt.Sprintf("core %d leaks %d staged lines at exit", c, cores[c].count)
		}
	}
	return a, ""
}

// workingSet assembles the baseline footprint the scan measured, in the
// shape CheckCapacity expects.
func (a *optAnalysis) workingSet() WorkingSet {
	ws := WorkingSet{
		CorePeak:          a.corePeak,
		Computes:          a.computes,
		SharedPeakPerChip: a.sharedPeak,
	}
	for ch := 0; ch < a.chips; ch++ {
		if a.sharedPeak[ch] > ws.SharedPeak {
			ws.SharedPeak = a.sharedPeak[ch]
		}
		ws.SharedStages += a.sharedStages[ch]
		ws.SharedUnstages += a.sharedUnstages[ch]
		ws.Stages += a.coreStages[ch]
		ws.Unstages += a.coreUnstages[ch]
	}
	return ws
}

// passes --------------------------------------------------------------

// optSharedPass commits pass (a): for every UnstageShared(l) whose next
// event on l is a StageShared(l) with no region reference to l in the
// gap, drop the pair when l's home chip has a free slot at every point
// of the gap. Candidates commit greedily in program order; each commit
// raises the chip's residency profile over its span so later candidates
// are checked against what has already been kept resident. Returns the
// elided pair count per home chip.
func optSharedPass(p *Program, rec *optRecorder, a *optAnalysis) []uint64 {
	elided := make([]uint64, a.chips)
	cs := p.Resources.SharedBlocks
	if cs <= 0 {
		return elided
	}
	profile := make([]*optMaxTree, a.chips) // built on a chip's first candidate
	seen := make([]int32, len(rec.table))   // events of each line visited so far
	for u, it := range rec.items {
		if it.region >= 0 {
			continue
		}
		l := it.driver.line
		k := int(seen[l])
		seen[l]++
		// Events alternate stage/unstage starting with a stage, so odd
		// indices are unstages; pair each with the stage after it.
		evts := a.sharedEvents[l]
		if k%2 == 0 || k+1 >= len(evts) {
			continue
		}
		s := int(evts[k+1])
		us := a.lineUses[l]
		i := sort.Search(len(us), func(i int) bool { return int(us[i].item) > u })
		if i < len(us) && int(us[i].item) < s {
			continue // the gap references l: the unstage is live
		}
		ch := p.HomeOf(rec.table[l])
		if profile[ch] == nil {
			profile[ch] = newOptMaxTree(a.resBefore[ch])
		}
		if int(profile[ch].max(u+1, s+1))+1 > cs {
			continue
		}
		rec.items[u].driver.drop = true
		rec.items[s].driver.drop = true
		profile[ch].add(u+1, s+1, 1)
		elided[ch]++
	}
	return elided
}

// optCorePass commits pass (b): a core's Unstage(l)→Stage(l) pair is
// dropped when the upstream copy provably cannot differ from the copy
// the core kept. For a clean hold that means no other core writes l
// from the moment this hold was opened through the restage (the kept
// copy must match what the baseline restage would have read). For a
// dirty hold the elision defers the merge to the chain's last
// surviving unstage, so no other core may touch l at all until the
// chain ends — and dirtiness carries forward across elided pairs,
// since the physical arena slot stays dirty. A surviving driver op on
// l inside the gap always blocks (the extended hold would overlap the
// shared-level unstage). Capacity is proven against the core's own
// residency profile, like the shared pass. Chains commit in (core,
// Matrix, Row, Col) order — commits on one core share its profile, so
// the order is part of the result. Returns elided pairs per staging
// core's chip.
func optCorePass(p *Program, rec *optRecorder, a *optAnalysis) []uint64 {
	elided := make([]uint64, a.chips)
	cd := p.Resources.CoreBlocks
	if cd <= 0 {
		return elided
	}
	// Surviving driver events per line, carved from one buffer.
	var nsurv int
	for _, evts := range a.sharedEvents {
		nsurv += len(evts)
	}
	buf := make([]int32, 0, nsurv)
	surv := make([][]int32, len(a.sharedEvents))
	for l, evts := range a.sharedEvents {
		start := len(buf)
		for _, t := range evts {
			if !rec.items[t].driver.drop {
				buf = append(buf, t)
			}
		}
		surv[l] = buf[start:len(buf):len(buf)]
	}
	for _, us := range a.lineUses {
		optIndexUses(us)
	}

	slices.SortFunc(a.chains, func(x, y optCoreChain) int {
		if x.core != y.core {
			return cmp.Compare(x.core, y.core)
		}
		lx, ly := rec.table[x.line], rec.table[y.line]
		if lx.Matrix != ly.Matrix {
			return cmp.Compare(lx.Matrix, ly.Matrix)
		}
		if lx.Row != ly.Row {
			return cmp.Compare(lx.Row, ly.Row)
		}
		return cmp.Compare(lx.Col, ly.Col)
	})

	profile := make([]*optMaxTree, p.Cores) // built on a core's first capacity check
	for _, k := range a.chains {
		evts := k.evts
		last := evts[len(evts)-1].item // the chain's final unstage, never dropped
		carry := false                 // an elided merge is still pending
		ds, us := surv[k.line], a.lineUses[k.line]
		for i := 1; i+1 < len(evts); i += 2 {
			open, u, s := evts[i-1], evts[i], evts[i+1]
			effDirty := u.dirty || carry
			di := sort.Search(len(ds), func(i int) bool { return ds[i] > u.item })
			blocked := di < len(ds) && ds[di] < s.item
			if !blocked {
				if effDirty {
					blocked = optForeignUse(us, k.core, u.item, last, false)
				} else {
					blocked = optForeignUse(us, k.core, open.item, s.item, true)
				}
			}
			if !blocked {
				if profile[k.core] == nil {
					profile[k.core] = newOptMaxTree(a.coreResBefore[k.core])
				}
				blocked = int(profile[k.core].max(int(u.pos)+1, int(s.pos)+1))+1 > cd
			}
			if blocked {
				// The unstage survives; a pending merge lands here
				// (the arena slot is still physically dirty).
				carry = false
				continue
			}
			rec.ops[u.op].drop = true
			rec.ops[s.op].drop = true
			profile[k.core].add(int(u.pos)+1, int(s.pos)+1, 1)
			elided[p.ChipOfCore(int(k.core))]++
			carry = effDirty
		}
	}
	return elided
}

// traffic model -------------------------------------------------------

type optModelCounts struct {
	msStage, msWB []uint64 // per home chip
	mdStage, mdWB []uint64 // per staging core's chip
}

// optModel replays the recorded stream through a dirty-tracking
// residency model and counts fills and dirty writebacks at both
// levels, optionally honouring the passes' drop marks. Running it
// twice — baseline and optimized — yields the report's writeback
// ledger and an independent check on the stage ledger.
func optModel(p *Program, rec *optRecorder, a *optAnalysis, honorDrops bool) optModelCounts {
	m := optModelCounts{
		msStage: make([]uint64, a.chips),
		msWB:    make([]uint64, a.chips),
		mdStage: make([]uint64, a.chips),
		mdWB:    make([]uint64, a.chips),
	}
	nl := len(rec.table)
	shared := make([]uint8, nl)
	coreRes := make([][]uint8, p.Cores) // allocated on a core's first stage
	for _, it := range rec.items {
		if it.region < 0 {
			d := it.driver
			if honorDrops && d.drop {
				continue
			}
			ch := p.HomeOf(rec.table[d.line])
			if d.stage {
				m.msStage[ch]++
				shared[d.line] = optClean
			} else {
				if shared[d.line] == optDirty {
					m.msWB[ch]++
				}
				shared[d.line] = optAbsent
			}
			continue
		}
		for c := range coreRes {
			chip := p.ChipOfCore(c)
			lo, hi := rec.span(it.region, c)
			for oi := lo; oi < hi; oi++ {
				op := &rec.ops[oi]
				if honorDrops && op.drop {
					continue
				}
				l := op.line
				switch op.kind {
				case optStage:
					if coreRes[c] == nil {
						coreRes[c] = make([]uint8, nl)
					}
					m.mdStage[chip]++
					coreRes[c][l] = optClean
				case optUnstage:
					if coreRes[c] == nil {
						break
					}
					if coreRes[c][l] == optDirty {
						m.mdWB[chip]++
						if shared[l] != optAbsent {
							shared[l] = optDirty
						}
					}
					coreRes[c][l] = optAbsent
				case optWrite:
					if !a.coreProg && shared[l] != optAbsent {
						shared[l] = optDirty
					}
				case optApply, optCompute:
					if a.coreProg {
						if coreRes[c] != nil && coreRes[c][l] != optAbsent {
							coreRes[c][l] = optDirty
						}
					} else if shared[l] != optAbsent {
						shared[l] = optDirty
					}
				}
			}
		}
	}
	return m
}

// rebuild -------------------------------------------------------------

// optReplay is what an optimized Body replays: the recorded core ops
// with their drop marks, the line table, and the sources of every Apply
// resolved once into srcs (CoreSink.Apply takes a slice, and handing
// it a persistent one keeps replay allocation-free). srcAt, parallel to
// the recorder's bounds, is where each region-core's sources start.
type optReplay struct {
	cores  int
	ops    []optCoreOp
	bounds []int32
	table  []Line
	srcs   []Line
	srcAt  []int32
}

// region returns the Parallel body replaying region reg.
func (rp *optReplay) region(reg int32) func(core int, ops CoreSink) {
	return func(core int, ops CoreSink) {
		if core < 0 || core >= rp.cores {
			return
		}
		b := int(reg)*rp.cores + core
		si := rp.srcAt[b]
		for oi := rp.bounds[b]; oi < rp.bounds[b+1]; oi++ {
			op := &rp.ops[oi]
			if op.drop {
				continue
			}
			switch op.kind {
			case optStage:
				ops.Stage(rp.table[op.line])
			case optUnstage:
				ops.Unstage(rp.table[op.line])
			case optRead:
				ops.Read(rp.table[op.line])
			case optWrite:
				ops.Write(rp.table[op.line])
			case optApply:
				var srcs []Line
				if n := int32(op.nsrc); n > 0 {
					srcs = rp.srcs[si : si+n : si+n]
					si += n
				}
				ops.Apply(op.kernel, rp.table[op.line], srcs...)
			case optCompute:
				ops.Compute(int(op.ci), int(op.cj), int(op.ck))
			}
		}
	}
}

// optStep is one step of an optimized Body: a surviving driver op, or
// a region with at least one surviving op.
type optStep struct {
	line   Line
	stage  bool
	region func(core int, ops CoreSink)
}

// optRebuild returns a copy of p whose Body replays the recorded
// stream, skipping dropped ops and regions left entirely empty (an
// empty region is a pure barrier — removing it shrinks the pipelined
// critical path and changes no core's stream). Everything a replay
// needs is resolved here, once, so the Body itself allocates nothing.
func optRebuild(p *Program, rec *optRecorder) *Program {
	rp := &optReplay{
		cores:  rec.cores,
		ops:    rec.ops,
		bounds: rec.bounds,
		table:  rec.table,
		srcAt:  make([]int32, len(rec.bounds)),
	}
	var nsrc int
	for i := range rec.ops {
		if rec.ops[i].kind == optApply {
			nsrc += int(rec.ops[i].nsrc)
		}
	}
	rp.srcs = make([]Line, 0, nsrc)
	for b := 0; b+1 < len(rec.bounds); b++ {
		rp.srcAt[b] = int32(len(rp.srcs))
		for _, op := range rec.ops[rec.bounds[b]:rec.bounds[b+1]] {
			if op.kind == optApply && !op.drop {
				for _, s := range op.srcs[:op.nsrc] {
					rp.srcs = append(rp.srcs, rec.table[s])
				}
			}
		}
	}

	var steps []optStep
	for _, it := range rec.items {
		if it.region < 0 {
			if !it.driver.drop {
				steps = append(steps, optStep{line: rec.table[it.driver.line], stage: it.driver.stage})
			}
			continue
		}
		lo, _ := rec.span(it.region, 0)
		_, hi := rec.span(it.region, rec.cores-1)
		for _, op := range rec.ops[lo:hi] {
			if !op.drop {
				steps = append(steps, optStep{region: rp.region(it.region)})
				break
			}
		}
	}

	q := *p
	q.Body = func(b Backend) {
		for i := range steps {
			switch st := &steps[i]; {
			case st.region != nil:
				b.Parallel(st.region)
			case st.stage:
				b.StageShared(st.line)
			default:
				b.UnstageShared(st.line)
			}
		}
	}
	return &q
}

// Optimize ------------------------------------------------------------

// Optimize records p's op stream, proves it well-formed, and elides
// restaging the declared machine never needed: shared lines kept
// resident across region gaps when their home chip has the headroom,
// core refills of provably unchanged upstream copies, and — as a
// consequence — intermediate dirty writebacks, which sink to each
// line's final unstage. The returned program replays the identical
// computation with MS/MD traffic less than or equal to the baseline's,
// operation by operation.
//
// Programs the pass cannot analyse (demand-driven, no body, malformed
// or verifier-violating streams, capacity already exceeded) come back
// unchanged — the original pointer — with the report's SkipReason set
// and no error: Optimize is safe to call on anything. An error is
// returned only when the pass's own output fails its re-measurement
// (a bug in the pass, never a property of the input), in which case
// the returned program is nil.
func Optimize(p *Program, opts OptimizeOptions) (*Program, OptimizeReport, error) {
	var rep OptimizeReport
	if p == nil {
		return nil, rep, fmt.Errorf("schedule: Optimize of nil program")
	}
	skip := func(reason string) (*Program, OptimizeReport, error) {
		rep.SkipReason = reason
		return p, rep, nil
	}
	if p.Body == nil {
		return skip("program has no body")
	}
	if p.DemandDriven {
		return skip("demand-driven program: no staging discipline to optimize")
	}
	if p.Cores < 1 {
		return skip("program declares no cores")
	}
	chips := p.Resources.ChipCount()
	if chips > 1 && p.Cores%chips != 0 {
		return skip(fmt.Sprintf("%d cores not divisible over %d chips", p.Cores, chips))
	}

	rec := newOptRecorder(p.Cores)
	p.Body(rec)
	if rec.bad != "" {
		return skip(rec.bad)
	}
	if len(rec.items) > math.MaxInt32 || len(rec.ops) > math.MaxInt32 {
		return skip("program too large to optimize")
	}
	a, reason := optAnalyze(p, rec)
	if reason != "" {
		return skip(reason)
	}
	if issues := CheckCapacity(a.workingSet(), p.Resources); len(issues) > 0 {
		return skip("baseline exceeds its declared capacities")
	}

	elidedShared := make([]uint64, chips)
	elidedCore := make([]uint64, chips)
	if !opts.NoSharedResidency {
		elidedShared = optSharedPass(p, rec, a)
	}
	if !opts.NoCoreReuse {
		elidedCore = optCorePass(p, rec, a)
	}

	base := optModel(p, rec, a, false)
	after := optModel(p, rec, a, true)
	rep.SharedPerChip = make([]OptimizeCounts, chips)
	rep.CorePerChip = make([]OptimizeCounts, chips)
	var totalElided uint64
	for ch := 0; ch < chips; ch++ {
		sc := &rep.SharedPerChip[ch]
		sc.BaselineStages = a.sharedStages[ch]
		sc.ElidedStages = elidedShared[ch]
		sc.KeptStages = after.msStage[ch]
		sc.BaselineWriteBacks = base.msWB[ch]
		sc.KeptWriteBacks = after.msWB[ch]
		if base.msStage[ch] != sc.BaselineStages ||
			sc.KeptStages+sc.ElidedStages != sc.BaselineStages ||
			sc.KeptWriteBacks > sc.BaselineWriteBacks {
			return nil, rep, fmt.Errorf("schedule: Optimize shared ledger does not balance on chip %d: baseline %d stages (model %d), elided %d, kept %d; writebacks %d→%d",
				ch, sc.BaselineStages, base.msStage[ch], sc.ElidedStages, sc.KeptStages, sc.BaselineWriteBacks, sc.KeptWriteBacks)
		}
		sc.ElidedWriteBacks = sc.BaselineWriteBacks - sc.KeptWriteBacks
		rep.Shared.add(*sc)

		cc := &rep.CorePerChip[ch]
		cc.BaselineStages = a.coreStages[ch]
		cc.ElidedStages = elidedCore[ch]
		cc.KeptStages = after.mdStage[ch]
		cc.BaselineWriteBacks = base.mdWB[ch]
		cc.KeptWriteBacks = after.mdWB[ch]
		if base.mdStage[ch] != cc.BaselineStages ||
			cc.KeptStages+cc.ElidedStages != cc.BaselineStages ||
			cc.KeptWriteBacks > cc.BaselineWriteBacks {
			return nil, rep, fmt.Errorf("schedule: Optimize core ledger does not balance on chip %d: baseline %d stages (model %d), elided %d, kept %d; writebacks %d→%d",
				ch, cc.BaselineStages, base.mdStage[ch], cc.ElidedStages, cc.KeptStages, cc.BaselineWriteBacks, cc.KeptWriteBacks)
		}
		cc.ElidedWriteBacks = cc.BaselineWriteBacks - cc.KeptWriteBacks
		rep.Core.add(*cc)

		totalElided += elidedShared[ch] + elidedCore[ch]
	}
	if totalElided == 0 {
		return p, rep, nil
	}

	q := optRebuild(p, rec)
	ws, err := Measure(q)
	if err != nil {
		return nil, rep, fmt.Errorf("schedule: optimized program does not measure: %w", err)
	}
	if ws.SharedStages != rep.Shared.KeptStages ||
		ws.Stages != rep.Core.KeptStages ||
		ws.SharedUnstages != rep.Shared.BaselineStages-rep.Shared.ElidedStages ||
		ws.Unstages != rep.Core.BaselineStages-rep.Core.ElidedStages ||
		ws.Computes != a.computes {
		return nil, rep, fmt.Errorf("schedule: optimized program replays a different stream: measured %d/%d stages, %d/%d unstages, %d computes; ledger kept %d/%d, computes %d",
			ws.SharedStages, ws.Stages, ws.SharedUnstages, ws.Unstages, ws.Computes,
			rep.Shared.KeptStages, rep.Core.KeptStages, a.computes)
	}
	if issues := CheckCapacity(ws, p.Resources); len(issues) > 0 {
		return nil, rep, fmt.Errorf("schedule: optimized program violates capacity it was proven against: %+v", issues[0])
	}
	rep.Changed = true
	return q, rep, nil
}
