package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// calibration is a fixed piece of work, independent of the repository's
// code, that an untraced run times before every op. Its time follows the
// shared host's speed at that moment: CPU time taken by other guests,
// clock frequency and contention for the caches. On a 2-vCPU host the
// same op reads 20-40% slower or faster from one minute to the next;
// the end-to-end times are scaled by refCalS over the run's median
// calibration time, which cancels most of that drift.
type calibration struct {
	chase []uint32 // a single cycle through the slice, for pointer chasing
	a, b  [calN * calN]float64
}

const (
	calN       = 48      // order of the dense product each worker repeats
	calMuls    = 120     // products per worker per sample
	calChase   = 1 << 22 // entries of the pointer-chasing cycle (16 MB)
	calHops    = 80000   // hops per worker per sample
	calWorkers = workers // one per executor worker, as the ops use them

	// refCalS is the median calibration time on the reference host (an
	// Intel Xeon with 2 vCPUs, at a quiet time), so scaled times read
	// close to that host's seconds.
	refCalS = 0.036
)

func newCalibration() (*calibration, error) {
	// The cycle lives outside the Go heap, so it does not change when
	// the collector runs during the ops. It is kept until the process
	// exits.
	mem, err := syscall.Mmap(-1, 0, calChase*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration memory: %w", err)
	}
	c := &calibration{chase: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calChase)}
	// Sattolo's shuffle with a fixed LCG gives one cycle through all
	// entries, so every hop is a dependent load at a new address.
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(c.chase) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	for i := range c.a {
		c.a[i] = float64(i%7) + 0.5
		c.b[i] = float64(i%5) - 1.5
	}
	return c, nil
}

// sample runs the fixed work in two halves of about equal time, each on
// calWorkers goroutines at once: dense products that stay in the core's
// caches, then pointer chasing through memory. It returns the seconds
// of both.
func (c *calibration) sample() float64 {
	sink := make([]float64, calWorkers)
	compute := c.parallel(func(w int) {
		var out [calN * calN]float64
		for r := 0; r < calMuls; r++ {
			for i := 0; i < calN; i++ {
				for k := 0; k < calN; k++ {
					aik := c.a[i*calN+k]
					for j := 0; j < calN; j++ {
						out[i*calN+j] += aik * c.b[k*calN+j]
					}
				}
			}
		}
		sink[w] = out[w]
	})
	memory := c.parallel(func(w int) {
		p := uint32(w * 977)
		for h := 0; h < calHops; h++ {
			p = c.chase[p]
		}
		sink[w] += float64(p)
	})
	return compute + memory
}

// parallel runs f(w) for every worker w at once and returns the seconds
// until all have finished.
func (c *calibration) parallel(f func(w int)) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < calWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}
