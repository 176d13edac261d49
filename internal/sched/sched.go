// Package sched implements PhoebeDB's co-routine pool runtime with the
// pull-based scheduler of §7.1.
//
// A pool runs Workers × SlotsPerWorker task slots. Each slot executes one
// transaction at a time to completion and, when vacant, pulls the next task
// from the pool's one run queue, a buffered channel: the pull-based model
// that avoids a central dispatcher. A vacant slot waits in exactly one
// receive on that channel, so no wake-up can be lost and an idle pool wakes
// nothing. Yields carry an urgency class:
//
//   - High urgency (latch spins, synchronous page reads): the slot stays
//     runnable and merely lets siblings proceed (runtime.Gosched), matching
//     "worker threads prioritize high-urgency cases ... resolving current
//     tasks" — the task is resumed promptly.
//   - Low urgency (tuple-lock waits): the slot parks on a wakeup channel;
//     the pool's other slots keep pulling new tasks.
//
// The co-routine substrate is the goroutine: user-level context switching
// with stack management by the Go runtime stands in for the C++ original's
// hand-rolled coroutines.
//
// Periodic duties — page swaps when a buffer partition runs low, garbage
// collection after a number of transactions — are run by each worker's
// slots between tasks via the Maintain callback, once every maintainEvery
// tasks the worker completes, keeping maintenance partitioned by worker
// (§7.1).
package sched

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"phoebedb/internal/metrics"
	"phoebedb/internal/park"
	"phoebedb/internal/waitevent"
)

// Task is one unit of work (typically one transaction attempt).
type Task func(s *Slot)

// maintainEvery is how many completed tasks a worker runs between two
// Maintain calls.
const maintainEvery = 64

// queuePerSlot is the run queue's capacity per task slot. Submit blocks
// once the queue is full (admission control), so the backlog a stopping
// pool drains and a wire session can wait behind stays a few tasks deep
// per slot.
const queuePerSlot = 4

// Config configures a Pool.
type Config struct {
	// Workers is the number of worker threads; defaults to GOMAXPROCS.
	Workers int
	// SlotsPerWorker is the task-slot count per worker (the paper's
	// evaluation default is 32). Defaults to 1.
	SlotsPerWorker int
	// Recorder receives per-slot metrics; may be nil.
	Recorder *metrics.Recorder
	// Waits receives per-slot wait-event stamps from yields; may be nil.
	Waits *waitevent.Slots
	// Maintain, if set, is invoked by a worker's slots between tasks,
	// once every maintainEvery tasks the worker completes.
	Maintain func(worker int)
}

// ErrStopped is returned by Submit after Stop.
var ErrStopped = errors.New("sched: pool stopped")

// Slot is one task slot's execution context, passed to every task.
type Slot struct {
	// Worker is the owning worker's index; ID is the global slot index.
	Worker, ID int
	// Metrics is the slot-local metrics accumulator (never nil).
	Metrics *metrics.SlotMetrics
	// Waits receives the slot's yield wait-event stamps; may be nil.
	Waits *waitevent.Slots
	// BeforePark, if set by the running task, is called at the start of
	// every YieldLow. The task clears it before it returns.
	BeforePark func()
	// Yield and Wait are YieldHigh and YieldLow as func values, bound once
	// when the slot is made: a task hands them to the engine with every
	// transaction it begins, and a method value built there would be an
	// allocation each.
	Yield func()
	Wait  func(ch <-chan struct{}, timeout time.Duration) bool

	// timer is the slot's one park timer, re-armed by every YieldLow.
	timer park.Timer
	// Yield counters are atomic so live scrapers can read them while the
	// slot runs; only the owning slot writes, so the adds stay uncontended.
	highYields atomic.Int64
	lowYields  atomic.Int64
}

// YieldHigh is a high-urgency yield (latch spin, page read): the slot
// remains runnable. It is too hot to time, so only the current-event word
// is stamped — the ASH sampler still sees yield-bound slots statistically,
// while cumulative sched_yield time comes from the parked (low) yields.
func (s *Slot) YieldHigh() {
	s.highYields.Add(1)
	if s.Waits != nil {
		s.Waits.Set(s.ID, waitevent.EvSchedYield)
		runtime.Gosched()
		s.Waits.Set(s.ID, waitevent.EvNone)
		return
	}
	runtime.Gosched()
}

// YieldLow is a low-urgency yield: park until ch fires or the timeout
// elapses (0 = no timeout). Returns false on timeout. The pool keeps
// executing tasks on its other slots while this one is parked.
func (s *Slot) YieldLow(ch <-chan struct{}, timeout time.Duration) bool {
	if s.BeforePark != nil {
		s.BeforePark()
	}
	s.lowYields.Add(1)
	// Stamp the park as sched_yield only if the caller has not already
	// classified the wait (a tuple-lock wait parks through here and must be
	// charged once, to tuple_lock, not twice).
	if s.Waits != nil && s.Waits.Current(s.ID) == waitevent.EvNone {
		start := s.Waits.Begin(s.ID, waitevent.EvSchedYield)
		defer s.Waits.End(s.ID, waitevent.EvSchedYield, start)
	}
	if timeout <= 0 {
		<-ch
		return true
	}
	return s.timer.Wait(ch, timeout)
}

// HighYields returns the slot's high-urgency yield count.
func (s *Slot) HighYields() int64 { return s.highYields.Load() }

// LowYields returns the slot's low-urgency yield count.
func (s *Slot) LowYields() int64 { return s.lowYields.Load() }

// Pool is a running co-routine pool: its slots all pull from one run queue.
type Pool struct {
	cfg   Config
	q     chan Task
	wg    sync.WaitGroup
	slots []*Slot
	// sinceMaintain counts each worker's completed tasks towards its next
	// Maintain call. It is the worker's, not each slot's: vacant slots take
	// tasks in turn, so per-slot counters would all come due together and
	// run a worker's maintenance rounds back to back.
	sinceMaintain []atomic.Int64
	// Stop against in-flight Submits: a Submit checks stopped and joins
	// submitting under stopMu, then sends holding no lock; Stop sets stopped,
	// closes stopping to release blocked senders, and closes the queue only
	// once submitting has drained. No send can reach a closed queue.
	stopMu     sync.RWMutex
	stopped    bool
	stopping   chan struct{}
	submitting sync.WaitGroup
	executed   atomic.Int64
}

// New creates a pool; call Start to spin up the slots.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SlotsPerWorker <= 0 {
		cfg.SlotsPerWorker = 1
	}
	return &Pool{
		cfg:           cfg,
		q:             make(chan Task, queuePerSlot*cfg.Workers*cfg.SlotsPerWorker),
		sinceMaintain: make([]atomic.Int64, cfg.Workers),
		stopping:      make(chan struct{}),
	}
}

// NumSlots returns the total task-slot count.
func (p *Pool) NumSlots() int { return p.cfg.Workers * p.cfg.SlotsPerWorker }

// Slots returns the slot contexts (valid after Start).
func (p *Pool) Slots() []*Slot { return p.slots }

// Executed returns the number of completed tasks.
func (p *Pool) Executed() int64 { return p.executed.Load() }

// QueueDepth returns the number of tasks waiting in the run queue — the
// admission-control backlog.
func (p *Pool) QueueDepth() int { return len(p.q) }

// Yields sums the high- and low-urgency yield counts across all slots.
func (p *Pool) Yields() (high, low int64) {
	for _, s := range p.slots {
		high += s.HighYields()
		low += s.LowYields()
	}
	return high, low
}

// Start launches the worker slots.
func (p *Pool) Start() {
	for w := 0; w < p.cfg.Workers; w++ {
		for i := 0; i < p.cfg.SlotsPerWorker; i++ {
			s := &Slot{Worker: w, ID: w*p.cfg.SlotsPerWorker + i, Waits: p.cfg.Waits}
			s.Yield, s.Wait = s.YieldHigh, s.YieldLow
			if p.cfg.Recorder != nil {
				s.Metrics = p.cfg.Recorder.NewSlot()
			} else {
				s.Metrics = &metrics.SlotMetrics{}
			}
			p.slots = append(p.slots, s)
			p.wg.Add(1)
			go p.run(s)
		}
	}
}

// run is one slot: pull a task whenever vacant, until Stop closes the
// queue and its backlog is drained.
func (p *Pool) run(s *Slot) {
	defer p.wg.Done()
	for task := range p.q {
		task(s)
		p.executed.Add(1)
		if p.cfg.Maintain != nil && p.sinceMaintain[s.Worker].Add(1)%maintainEvery == 0 {
			p.cfg.Maintain(s.Worker)
		}
	}
}

// Submit enqueues a task, blocking while the run queue is full (admission
// control). It fails once the pool is stopped, also when Stop arrives while
// it is blocked. It sends holding no lock, so tasks that themselves Submit
// keep running and draining.
func (p *Pool) Submit(t Task) error {
	p.stopMu.RLock()
	if p.stopped {
		p.stopMu.RUnlock()
		return ErrStopped
	}
	p.submitting.Add(1)
	p.stopMu.RUnlock()
	defer p.submitting.Done()
	select {
	case p.q <- t:
		return nil
	case <-p.stopping:
		return ErrStopped
	}
}

// SubmitWait enqueues a task and blocks until it completes.
func (p *Pool) SubmitWait(t Task) error {
	done := make(chan struct{})
	err := p.Submit(func(s *Slot) {
		defer close(done)
		t(s)
	})
	if err != nil {
		return err
	}
	<-done
	return nil
}

// Stop drains the queue and waits for all slots to exit. Safe to call
// more than once and concurrently with Submit, also from tasks' own Submits.
func (p *Pool) Stop() {
	p.stopMu.Lock()
	if p.stopped {
		p.stopMu.Unlock()
		return
	}
	p.stopped = true
	close(p.stopping)
	p.stopMu.Unlock()
	p.submitting.Wait()
	close(p.q)
	p.wg.Wait()
}
