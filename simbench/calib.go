package main

import (
	"runtime"
	"sync"
	"time"
)

// Host speed on a shared machine drifts by tens of percent over seconds
// to minutes, and it drifts much alike for programs doing similar work.
// So every timed operation is bracketed by runs of a fixed kernel that
// belongs to the benchmark, and its host time is rescaled by the
// kernel's speed at that moment: t_ref = t_host × ref / t_kernel. The
// rescaled times are reference-host times; a change to the simulator
// moves them, host drift mostly does not.
//
// There are two kernels, each chosen by measurement for the work it
// rescales. Simulation runs are rescaled by simKernel, whose work is
// like the engines'. The fleet's served path (loopback HTTP, JSON,
// goroutine hand-offs on both CPUs) is rescaled by tableKernel run on
// both CPUs at once: against it, simKernel's allocations made served
// latencies spread wider than raw host time did.

// The kernels' times on the reference host.
const (
	simRef   = 2 * time.Millisecond
	tableRef = 3 * time.Millisecond
)

var (
	simState  = kernelState{mem: make([]uint32, 1<<14), m: map[uint32]uint32{}}
	tableMems = [2][]uint32{make([]uint32, 1<<20), make([]uint32, 1<<20)}
)

type kernelState struct {
	mem []uint32
	m   map[uint32]uint32
}

type kernelInst struct{ op, a, b, c uint8 }

var kernelProg = []kernelInst{{0, 1, 1, 7}, {1, 2, 1, 0}, {2, 3, 2, 1}, {3, 4, 3, 0}, {4, 0, 4, 2},
	{5, 5, 4, 3}, {6, 6, 5, 1}, {7, 1, 6, 0}, {2, 7, 7, 1}, {8, 7, 0, 0}}

// simKernel does the kinds of work the simulators do and returns its
// time: a small register machine interpreted through a switch, with
// data-dependent branches and loads and stores to a 64 KiB memory (like
// an engine's slow path), then map updates with small allocations (like
// action-cache lookups and recording). A kernel of table loads and
// stores alone tracked the engines' speed less well: the host's
// slowdowns hit the two kinds of code differently.
func simKernel(s *kernelState) time.Duration {
	t0 := time.Now()
	var r [8]uint32
	mem := s.mem
	for it := 0; it < 30_000; it++ {
		for pc := 0; pc < len(kernelProg); pc++ {
			in := kernelProg[pc]
			switch in.op {
			case 0:
				r[in.a] = r[in.b]*1103515245 + uint32(in.c) + 12345
			case 1:
				r[in.a] = r[in.b] >> 7 & (1<<14 - 1)
			case 2:
				r[in.a] += r[in.b] ^ uint32(in.c)
			case 3:
				r[in.a] = mem[r[in.b]&(1<<14-1)]
			case 4:
				mem[r[in.b]&(1<<14-1)] = r[in.c] + r[in.a]
			case 5:
				if r[in.b]&1 == 0 {
					r[in.a] = r[in.c] + 1
				} else {
					r[in.a] = r[in.c] - 1
				}
			case 6:
				r[in.a] = r[in.b] | uint32(in.c)<<3
			case 7:
				r[in.a] ^= r[in.b]
			case 8:
				if r[in.a]&3 == 1 {
					pc++
				}
			}
		}
	}
	x := r[1]
	var keep [][]byte
	for i := 0; i < 45_000; i++ {
		x = x*1664525 + 1013904223
		s.m[x>>18] += x
		if i&63 == 0 {
			keep = append(keep, make([]byte, 64+int(x&127)))
		}
	}
	d := time.Since(t0)
	mem[0] += x + uint32(len(keep)) // keep the loops' results live
	return d
}

// tableKernel runs LCG-driven reads and writes, three in four to a
// 64 KiB region and one in four over 4 MiB, with a data-dependent
// branch, and returns its time.
func tableKernel(tab []uint32) time.Duration {
	x := uint32(12345)
	t0 := time.Now()
	for i := 0; i < 400_000; i++ {
		x = x*1103515245 + 12345
		j := (x >> 6) & (1<<20 - 1)
		if i&3 != 0 {
			j &= 1<<14 - 1
		}
		if tab[j]&1 == 0 {
			tab[j] += x
		} else {
			tab[j] ^= x >> 3
		}
	}
	d := time.Since(t0)
	tab[0] += x // keep the loop's result live
	return d
}

// calibrator rescales a sequence of operations, each bracketed by the
// kernel run before it and the one after it.
type calibrator struct {
	served bool // the fleet loop: tableKernel on both CPUs at once
	last   time.Duration
}

// measure collects the garbage, then runs the kernel. Collecting first
// keeps a collection that the last operation started out of the
// kernel's time, and the last operation's garbage out of the next one's.
func (c *calibrator) measure() time.Duration {
	runtime.GC()
	if !c.served {
		return simKernel(&simState)
	}
	var wg sync.WaitGroup
	var ds [len(tableMems)]time.Duration
	for i := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds[i] = tableKernel(tableMems[i])
		}()
	}
	wg.Wait()
	return (ds[0] + ds[1]) / 2
}

func (c *calibrator) start() { c.last = c.measure() }

// next runs the kernel again and returns the factor that rescales the
// operation since the previous run to the reference host.
func (c *calibrator) next() float64 {
	now := c.measure()
	ref := simRef
	if c.served {
		ref = tableRef
	}
	f := 2 * float64(ref) / float64(c.last+now)
	c.last = now
	return f
}
