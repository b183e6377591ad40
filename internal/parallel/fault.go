package parallel

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/faultinject"
	"repro/internal/schedule"
)

// ErrIntegrity is the sentinel wrapped by every checksum-tripwire
// failure (see SetIntegrityChecks): a staged copy whose contents changed
// while it was resident, outside any kernel's legitimate writes.
// errors.Is(err, ErrIntegrity) distinguishes silent-corruption catches
// from discipline or kernel errors.
var ErrIntegrity = errors.New("parallel: staged copy failed its integrity check")

// SetFaultInjector installs (or, with nil, removes) the fault hook the
// executor consults at every replayed operation: each worker op (apply,
// stage, unstage) and each of the driver's memory↔shared transfers
// builds a faultinject.Point from its provenance coordinates and asks
// the injector whether a fault fires there. Injected panics exercise the
// Team's panic isolation, injected errors the sticky-error and Reset
// paths, delays the pipeline's overlap accounting, and corruption the
// integrity tripwire. The injector must be safe for concurrent calls
// (faultinject.Plan is); set it before Run, not during one.
func (ex *Executor) SetFaultInjector(inj faultinject.Injector) { ex.inject = inj }

// SetIntegrityChecks arms the per-line checksum tripwire: every staging
// transfer records an FNV-1a checksum of the packed copy, and the copy
// is re-verified when it is next read on a staging path — a core tile at
// release time (only while clean: kernels legitimately mutate dirty
// tiles, whose checksum is then stale), a shared tile at every refill
// and release (Absorb recomputes the checksum, so dirty shared copies
// verify too). A mismatch fails the run with an ErrIntegrity-wrapped
// RunError carrying the provenance of the operation that detected it.
// The checks cost one pass over each staged tile per transfer; they are
// off by default and meant for chaos runs and the fault-grid tests.
func (ex *Executor) SetIntegrityChecks(on bool) { ex.integrity = on }

// injectAt consults the installed injector at p and performs the
// actions that happen before the operation runs: a delay sleeps here, a
// panic unwinds from here (through the replay's recover into a
// RunError), an error returns wrapping faultinject.ErrInjected.
// ActCorrupt is returned to the caller, which flips the bit after the
// transfer has staged the copy to corrupt.
func (ex *Executor) injectAt(p faultinject.Point) (faultinject.Action, error) {
	if ex.inject == nil {
		return faultinject.Action{}, nil
	}
	act := ex.inject.At(p)
	switch act.Kind {
	case faultinject.ActDelay:
		time.Sleep(act.Delay)
	case faultinject.ActPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %v", p.Op))
	case faultinject.ActError:
		return act, fmt.Errorf("%w at %v (%v %v)", faultinject.ErrInjected, p.Op, p.Kind, p.Line)
	}
	return act, nil
}

// corruptData flips bit b of the first value of a staged copy — the
// physical effect of faultinject.ActCorrupt.
func corruptData(data []float64, bit uint) {
	if len(data) == 0 {
		return
	}
	data[0] = math.Float64frombits(math.Float64bits(data[0]) ^ (1 << (bit & 63)))
}

// checksum is the integrity tripwire's digest: FNV-1a over the IEEE-754
// bit patterns, so any single-bit flip — including ones that leave the
// float value printing identically — changes the sum.
func checksum(data []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range data {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime
		}
	}
	return h
}

// opError wraps a worker-op failure with its full provenance. Errors
// that are already RunErrors pass through untouched.
func (ex *Executor) opError(ref schedule.OpRef, op execOp, err error) error {
	var re *RunError
	if errors.As(err, &re) {
		return err
	}
	return &RunError{
		Algorithm: ex.algorithm,
		Op:        ref,
		Site:      siteOf(op),
		Kernel:    op.kernel,
		Line:      ex.line(op.line),
		HasOp:     true,
		Err:       err,
	}
}

// driverError wraps a failure of one of the driver's shared staging
// transfers with its provenance, like opError for worker ops.
func (ex *Executor) driverError(ref schedule.OpRef, site faultinject.OpKind, l schedule.Line, err error) error {
	var re *RunError
	if errors.As(err, &re) {
		return err
	}
	return &RunError{
		Algorithm: ex.algorithm,
		Op:        ref,
		Site:      site,
		Line:      l,
		HasOp:     true,
		Err:       err,
	}
}

// ctxErr polls the active RunContext's context. A cancelled or expired
// context surfaces as a RunError attributed to the driver at the
// current region, unwrapping to the context's own error so callers can
// errors.Is against context.Canceled / DeadlineExceeded.
func (ex *Executor) ctxErr() error {
	if ex.ctx == nil {
		return nil
	}
	select {
	case <-ex.ctx.Done():
		return &RunError{
			Algorithm: ex.algorithm,
			Op:        schedule.OpRef{Region: ex.region, Core: schedule.DriverCore, Index: -1},
			Err:       ex.ctx.Err(),
		}
	default:
		return nil
	}
}

// Reset returns a quarantined executor to service after a failed or
// cancelled Run. The sticky error clears, every arena — core and shared
// — drops its resident tiles without merging and zeroes its backing
// buffer (after a mid-kernel death or injected corruption the contents
// are suspect, so nothing is written back and nothing survives), and
// the provenance counters rewind. Program caches (validation, pipeline
// plans, recordings, optimizer rewrites) are kept: programs are
// immutable, so they remain valid across failures.
//
// The operand matrices are the caller's: a failed run may have written
// partial results back into them, so restore the inputs before
// re-running when reproducibility matters. On restored inputs, a Run
// after Reset is bitwise identical to the same Run on a fresh executor
// — the fault-grid tests pin exactly this.
func (ex *Executor) Reset() {
	ex.err = nil
	for _, ar := range ex.arenas {
		if ar != nil {
			ar.Discard()
		}
	}
	for _, sa := range ex.shared {
		if sa != nil {
			sa.Discard()
		}
	}
	for i := range ex.opIdx {
		ex.opIdx[i] = 0
	}
	ex.drvIdx = 0
	ex.region = -1
	ex.algorithm = ""
}
