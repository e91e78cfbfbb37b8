// Package simnet is a deterministic discrete-event simulator of shared
// bandwidth resources. The figure harnesses use it to run paper-scale
// configurations (hundreds of GPUs writing to providers or a parallel file
// system) in milliseconds of wall time while preserving the contention
// behaviour that shapes the results.
//
// The model: a Net holds resources (NIC links, OSTs, provider ingest
// queues), each with a capacity in bytes per virtual second. A flow is a
// transfer of N bytes that traverses one or more resources. At any instant
// the simulator assigns flows max-min fair rates via progressive filling:
// the bottleneck resource's fair share freezes its flows, residual capacity
// is redistributed, and so on. Time advances to the next flow completion or
// timer; callbacks then mutate the flow set.
//
// The simulator is single-threaded and deterministic: equal inputs produce
// equal schedules, which keeps the reproduced figures stable run-to-run.
//
// Paper counterpart: the evaluation methodology of §5 — the ALCF Polaris
// runs (hundreds of GPUs against 8–32 providers or a Lustre file system)
// are replayed here as bandwidth-contention schedules instead of real
// hardware.
//
// Contracts: a Net and everything reachable from it are confined to one
// goroutine; no method is safe for concurrent use. Run is not idempotent —
// it consumes the event queue — but is reproducible: re-building the same
// scenario replays the identical schedule.
package simnet

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Resource is a capacity-limited stage flows traverse.
type Resource struct {
	Name     string
	Capacity float64 // bytes per virtual second

	id    int
	flows map[*Flow]struct{}
}

// Flow is one in-flight transfer.
type Flow struct {
	id        uint64
	remaining float64
	rate      float64
	eta       float64 // predicted completion time, refreshed each step
	path      []*Resource
	onDone    func(now float64)
}

// timer is a scheduled callback.
type timer struct {
	at  float64
	seq uint64
	fn  func(now float64)
}

type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h timerHeap) peek() (timer, bool) {
	if len(h) == 0 {
		return timer{}, false
	}
	return h[0], true
}

// Net is one simulation instance.
type Net struct {
	now       float64
	seq       uint64
	resources []*Resource
	flows     map[*Flow]struct{}
	timers    timerHeap
	dirty     bool // flow set changed since last rate computation
}

// New returns an empty simulation at time 0.
func New() *Net {
	return &Net{flows: make(map[*Flow]struct{})}
}

// Now returns the current virtual time in seconds.
func (n *Net) Now() float64 { return n.now }

// AddResource registers a capacity-limited resource.
func (n *Net) AddResource(name string, capacity float64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("simnet: resource %q capacity must be positive", name))
	}
	r := &Resource{Name: name, Capacity: capacity, id: len(n.resources), flows: make(map[*Flow]struct{})}
	n.resources = append(n.resources, r)
	return r
}

// StartFlow begins transferring bytes across path, invoking onDone (which
// may start further flows or timers) when the last byte arrives. A zero or
// negative byte count completes at the current time via a timer.
func (n *Net) StartFlow(bytes float64, path []*Resource, onDone func(now float64)) *Flow {
	if bytes <= 0 {
		n.At(0, onDone)
		return nil
	}
	if len(path) == 0 {
		panic("simnet: flow needs at least one resource")
	}
	n.seq++
	f := &Flow{id: n.seq, remaining: bytes, path: path, onDone: onDone}
	n.flows[f] = struct{}{}
	for _, r := range path {
		r.flows[f] = struct{}{}
	}
	n.dirty = true
	return f
}

// At schedules fn to run delay virtual seconds from now (0 = as soon as
// the event loop regains control, still deterministic).
func (n *Net) At(delay float64, fn func(now float64)) {
	if delay < 0 {
		delay = 0
	}
	n.seq++
	heap.Push(&n.timers, timer{at: n.now + delay, seq: n.seq, fn: fn})
}

// recomputeRates runs progressive filling over the active flows.
func (n *Net) recomputeRates() {
	if len(n.flows) == 0 {
		return
	}
	type resState struct {
		residual float64
		active   int
	}
	states := make([]resState, len(n.resources))
	for _, r := range n.resources {
		states[r.id] = resState{residual: r.Capacity, active: 0}
	}
	frozen := make(map[*Flow]bool, len(n.flows))
	for f := range n.flows {
		f.rate = 0
		for _, r := range f.path {
			states[r.id].active++
		}
	}
	remaining := len(n.flows)
	for remaining > 0 {
		// Find the bottleneck: minimum fair share among resources with
		// active flows.
		share := math.Inf(1)
		bottleneck := -1
		for id := range states {
			s := &states[id]
			if s.active == 0 {
				continue
			}
			if fs := s.residual / float64(s.active); fs < share {
				share = fs
				bottleneck = id
			}
		}
		if bottleneck < 0 {
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share.
		br := n.resources[bottleneck]
		var toFreeze []*Flow
		for f := range br.flows {
			if !frozen[f] {
				toFreeze = append(toFreeze, f)
			}
		}
		if len(toFreeze) == 0 {
			states[bottleneck].active = 0
			continue
		}
		for _, f := range toFreeze {
			frozen[f] = true
			f.rate = share
			remaining--
			for _, r := range f.path {
				states[r.id].residual -= share
				states[r.id].active--
				if states[r.id].residual < 0 {
					states[r.id].residual = 0
				}
			}
		}
	}
	n.dirty = false
}

const eps = 1e-9

// step advances the simulation by one event. It reports false when no
// events remain.
//
// Completion is detected via each flow's predicted completion time (eta)
// rather than by comparing the decremented byte counter against an absolute
// epsilon: "remaining -= rate·dt" leaves O(ulp·remaining) residue, and an
// absolute threshold either strands large flows (infinite sub-byte steps)
// or spuriously completes tiny ones.
func (n *Net) step() bool {
	if len(n.flows) == 0 && len(n.timers) == 0 {
		return false
	}
	if n.dirty {
		n.recomputeRates()
	}
	// Earliest flow completion.
	tFlow := math.Inf(1)
	for f := range n.flows {
		if f.rate <= 0 {
			f.eta = math.Inf(1)
			continue
		}
		f.eta = n.now + f.remaining/f.rate
		if f.eta < tFlow {
			tFlow = f.eta
		}
	}
	tTimer := math.Inf(1)
	if tm, ok := n.timers.peek(); ok {
		tTimer = tm.at
	}
	t := math.Min(tFlow, tTimer)
	if math.IsInf(t, 1) {
		// Flows exist but none can progress: capacity misconfiguration.
		panic("simnet: deadlock — active flows with zero rate and no timers")
	}

	// Advance all flows to time t.
	dt := t - n.now
	if dt > 0 {
		for f := range n.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	n.now = t

	// Collect completions deterministically (by flow id): every flow whose
	// predicted completion is within relative tolerance of now.
	tol := eps * (1 + math.Abs(n.now))
	var done []*Flow
	for f := range n.flows {
		if f.eta <= n.now+tol || f.remaining <= 0 {
			done = append(done, f)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].id < done[j].id })
	for _, f := range done {
		delete(n.flows, f)
		for _, r := range f.path {
			delete(r.flows, f)
		}
		n.dirty = true
	}
	// Fire due timers (before callbacks of flows? deterministic rule:
	// timers first when at the same instant — they were scheduled earlier).
	var fired []timer
	for {
		tm, ok := n.timers.peek()
		if !ok || tm.at > n.now+eps {
			break
		}
		fired = append(fired, heap.Pop(&n.timers).(timer))
	}
	for _, tm := range fired {
		tm.fn(n.now)
	}
	for _, f := range done {
		if f.onDone != nil {
			f.onDone(n.now)
		}
	}
	return true
}

// Run processes events until none remain and returns the final time.
func (n *Net) Run() float64 {
	for n.step() {
	}
	return n.now
}

// RunUntil processes events with timestamps ≤ deadline and then sets the
// clock to deadline (if it is later than the last event).
func (n *Net) RunUntil(deadline float64) float64 {
	for {
		if len(n.flows) == 0 && len(n.timers) == 0 {
			break
		}
		if n.dirty {
			n.recomputeRates()
		}
		tFlow := math.Inf(1)
		for f := range n.flows {
			if f.rate > 0 {
				if t := n.now + f.remaining/f.rate; t < tFlow {
					tFlow = t
				}
			}
		}
		tTimer := math.Inf(1)
		if tm, ok := n.timers.peek(); ok {
			tTimer = tm.at
		}
		if math.Min(tFlow, tTimer) > deadline {
			break
		}
		n.step()
	}
	// Advance idle flows' progress up to the deadline.
	if deadline > n.now {
		dt := deadline - n.now
		for f := range n.flows {
			f.remaining -= f.rate * dt
		}
		n.now = deadline
	}
	return n.now
}
