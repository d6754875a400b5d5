package main

import (
	"container/heap"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// prSetTimerSlack is Linux's PR_SET_TIMERSLACK prctl option.
const prSetTimerSlack = 29

// Visitor schedule: navload's session model at its defaults (-steps 20,
// -think 10ms; internal/load/walker.go). A visitor takes between
// stepsMin and stepsMax steps, uniformly, with exponential think times
// of mean think between them, capped at ten means. Returning visitors
// (resume) take their reload and then returnSteps more, "a few steps".
const (
	stepsMin    = 10
	stepsMax    = 30
	think       = 10 * time.Millisecond
	returnSteps = 3
)

// schedule draws the due times of one phase, before the phase runs.
// Visitors arrive at a fixed rate, spaced 1/rate apart, and the phase
// keeps the steps due within [0, length). Arrivals begin a whole visit
// before the phase, so the offered step rate is already steady at its
// start; a visitor's first step inside the phase is its entry (an open
// for a new visitor, the reload for a returning one).
//
// stepRate is in visitor steps per second. For returning visitors,
// next hands out the recorded visitors in order and the schedule stops
// when they run out.
func schedule(rng *rand.Rand, stepRate float64, length time.Duration, returning bool, next func() *visitor) []*visitor {
	meanSteps := float64(stepsMin+stepsMax) / 2
	if returning {
		meanSteps = 1 + returnSteps
	}
	gap := time.Duration(float64(time.Second) * meanSteps / stepRate)
	lead := time.Duration(stepsMax) * think * 2
	if returning {
		lead = 0
	}
	var out []*visitor
	for arrive := -lead; arrive < length; arrive += gap {
		n := 1 + returnSteps
		if !returning {
			n = stepsMin + rng.Intn(stepsMax-stepsMin+1)
		}
		var due []time.Duration
		at := arrive
		for i := 0; i < n && at < length; i++ {
			if at >= 0 {
				due = append(due, at)
			}
			at += time.Duration(math.Min(rng.ExpFloat64(), 10) * float64(think))
		}
		if len(due) == 0 {
			continue
		}
		v := next()
		if v == nil {
			break
		}
		v.due, v.next, v.started = due, 0, false
		out = append(out, v)
	}
	return out
}

// fixedRate adds the writer to a phase with one mutation due every
// 1/rate seconds.
func fixedRate(v *visitor, rate float64, length time.Duration) {
	v.due, v.next = nil, 0
	gap := time.Duration(float64(time.Second) / rate)
	for at := gap / 2; at < length; at += gap {
		v.due = append(v.due, at)
	}
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	tally
	late      []time.Duration // generator delay past each step's send time
	start     time.Time       // when offset zero of the schedule was
	elapsed   time.Duration   // phase start to last completion
	scheduled int             // visitor steps due in the phase
	aborted   int             // steps never sent because the phase was abandoned
}

// visitorHeap orders visitors by their next step's due time.
type visitorHeap []*visitor

func (h visitorHeap) Len() int           { return len(h) }
func (h visitorHeap) Less(i, j int) bool { return h[i].due[h[i].next] < h[j].due[h[j].next] }
func (h visitorHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *visitorHeap) Push(x any)        { *h = append(*h, x.(*visitor)) }
func (h *visitorHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// runPhase drives the visitors open-loop over conns, one worker per
// connection. A free worker takes the visitor whose next step is due
// first, sleeps until that step's due time, and sends it; a step can
// only start once its visitor's previous step has completed, and a due
// step waits while every connection is busy. Each step's latency runs
// from its due time to its completion, so a stall is charged to every
// step due during it. When giveUp is positive, a phase whose oldest
// unsent step is that late is abandoned: its remaining steps are never
// sent.
func runPhase(conns []transport, e *env, visitors []*visitor, giveUp time.Duration) *phaseResult {
	res := &phaseResult{}
	h := make(visitorHeap, 0, len(visitors))
	for _, v := range visitors {
		if v.w == nil {
			res.scheduled += len(v.due)
		}
		h = append(h, v)
	}
	heap.Init(&h)
	var (
		mu        sync.Mutex // guards h, inflight and abandoned
		inflight  int
		abandoned bool
	)
	// take returns the next step to send, sleeping until it is due, or
	// nil when the phase is over for this worker.
	take := func() *visitor {
		for {
			mu.Lock()
			if abandoned || (len(h) == 0 && inflight == 0) {
				mu.Unlock()
				return nil
			}
			wait := 100 * time.Microsecond // another worker's visitor may come back
			if len(h) > 0 {
				v := h[0]
				due := res.start.Add(v.due[v.next])
				now := time.Now()
				if giveUp > 0 && now.Sub(due) > giveUp {
					abandoned = true
					mu.Unlock()
					return nil
				}
				if wait = due.Sub(now); wait <= 0 {
					heap.Pop(&h)
					inflight++
					mu.Unlock()
					return v
				}
			}
			mu.Unlock()
			sleep(min(wait, 5*time.Millisecond))
		}
	}
	tallies := make([]tally, len(conns))
	lates := make([][]time.Duration, len(conns))
	res.start = time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(t *tally, late *[]time.Duration, c transport) {
			defer wg.Done()
			// The Go runtime parks an idle process in epoll with
			// millisecond timeouts, which would make steps up to a
			// millisecond late; each worker keeps its thread, with a
			// tight timer slack, and sleeps in nanosleep instead.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
			tt, traced := c.(*tracedTransport)
			freeAt := time.Now()
			for v := take(); v != nil; v = take() {
				from := time.Now()
				due := res.start.Add(v.due[v.next])
				// Lateness is the worker's own delay: it excludes waiting
				// for the visitor's previous step or a free connection.
				*late = append(*late, from.Sub(latest(due, v.readyAt, freeAt)))
				if traced {
					tt.step = tt.log.ids.Add(1)
				}
				v.step(c, e, t)
				end := time.Now()
				if traced {
					tt.log.add(tt.step, 0, "step", from, end)
					tt.step = 0
				}
				if v.w == nil {
					t.steps = append(t.steps, stepSample{due: v.due[v.next], latency: end.Sub(due)})
				}
				freeAt = end
				mu.Lock()
				inflight--
				if v.next++; v.next < len(v.due) {
					v.readyAt = end
					heap.Push(&h, v)
				}
				mu.Unlock()
			}
		}(&tallies[i], &lates[i], c)
	}
	wg.Wait()
	res.elapsed = time.Since(res.start)
	for i := range tallies {
		res.merge(&tallies[i])
		res.late = append(res.late, lates[i]...)
	}
	res.aborted = res.scheduled - len(res.steps)
	return res
}

func latest(ts ...time.Time) time.Time {
	l := ts[0]
	for _, t := range ts[1:] {
		if t.After(l) {
			l = t
		}
	}
	return l
}

func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
