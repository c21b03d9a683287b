package main

import "time"

// The benchmark runs on shared hosts, where other tenants' load changes
// how fast the same code runs by 10–50%, within seconds as well as over
// minutes. Its reported times are therefore normalized to host speed.
// Between operations, each workload times a fixed reference kernel. The
// kernel is the benchmark's own code and never calls into the repository,
// so a change to the repository cannot move it, while a slower host slows
// both alike. Each operation's or set-up's time is scaled by refNominalMS
// over the mean of the two kernel timings around it, so it reads as it
// would on a host where the kernel takes refNominalMS. The raw readings
// are kept in the record.

// refNominalMS is the kernel time the scaled times are quoted at, about
// what the kernel takes on an idle 2-vCPU Xeon VM, so scaled times there
// read close to raw ones.
const refNominalMS = 100

// hostSpeed collects one run's reference-kernel timings.
type hostSpeed struct{ refMS []float64 }

// sample times the reference kernel once.
func (h *hostSpeed) sample() {
	t0 := time.Now()
	refKernel()
	h.refMS = append(h.refMS, float64(time.Since(t0))/float64(time.Millisecond))
}

// bracket returns the scale for work that ran between the last two kernel
// timings: refNominalMS over their mean. Multiply times by it.
func (h *hostSpeed) bracket() float64 {
	n := len(h.refMS)
	return 2 * refNominalMS / (h.refMS[n-2] + h.refMS[n-1])
}

// measured holds a workload's timed set-ups or operations.
type measured struct {
	raw, scaled      []float64 // each one's time, as read and scaled to host speed
	wall, scaledWall float64   // seconds they took together, as read and scaled
}

// add records one time and its host-speed scale.
func (m *measured) add(t, scale float64) {
	m.raw = append(m.raw, t)
	m.scaled = append(m.scaled, t*scale)
}

// The kernel's state: a small array that stays in the core's caches and a
// larger one that spills to the shared last-level cache, the two places
// the simulator's own working set lives.
var (
	refSmall = make([]uint64, 1<<15) // 256 KiB
	refLarge = make([]uint64, 1<<19) // 4 MiB
	refHeap  = make([]refEvent, 0, refPending)
	refSink  uint64
)

const (
	refPending = 4096    // events pending in the queue
	refSteps   = 450_000 // events executed per array
)

type refEvent struct {
	t uint64
	v uint32
}

// refKernel runs a small discrete-event simulation, the shape of the
// work the simulator does: pop the earliest event from a binary heap,
// update one word of state, schedule a successor at a pseudo-random word.
// It allocates nothing and does the same work on every call.
func refKernel() {
	refSink += refEvents(refSmall) + refEvents(refLarge)
}

func refEvents(state []uint64) uint64 {
	n := uint64(len(state))
	h := refHeap[:0]
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	push := func(e refEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].t <= h[i].t {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() refEvent {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1].t < h[c].t {
				c++
			}
			if h[i].t <= h[c].t {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		return top
	}
	for i := 0; i < refPending; i++ {
		r := next()
		push(refEvent{r % 1000, uint32(r % n)})
	}
	for i := 0; i < refSteps; i++ {
		e := pop()
		state[e.v] += e.t
		r := next()
		push(refEvent{e.t + r%1000, uint32((uint64(e.v)*2654435761 + r) % n)})
	}
	refHeap = h
	return state[0]
}
