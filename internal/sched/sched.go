// Package sched implements PhoebeDB's co-routine pool runtime with the
// pull-based scheduler of §7.1.
//
// A pool runs Workers × SlotsPerWorker task slots. Each slot executes one
// transaction at a time to completion and pulls the next task from its
// worker's queue when it becomes vacant — the pull-based model that avoids
// a central dispatcher. The task queue is sharded per worker (submission is
// round-robin, idle workers steal from siblings) so a many-core pool does
// not rendezvous on a single channel. A vacant slot with nothing to pull
// parks on its worker's queue and is woken by exactly one event: a task
// sent to that queue, or a kick from a submitter whose home worker had no
// parked slot (see park). Nothing polls. Yields carry an urgency class:
//
//   - High urgency (latch spins, synchronous page reads): the slot stays
//     runnable and merely lets siblings proceed (runtime.Gosched), matching
//     "worker threads prioritize high-urgency cases ... resolving current
//     tasks" — the task is resumed promptly.
//   - Low urgency (tuple-lock waits): the slot parks on a wakeup channel;
//     its worker keeps pulling new tasks through its other slots.
//
// The co-routine substrate is the goroutine: user-level context switching
// with stack management by the Go runtime stands in for the C++ original's
// hand-rolled coroutines.
//
// Periodic duties — page swaps when a buffer partition runs low, garbage
// collection after a number of transactions — are run by each worker's
// slots between tasks via the Maintain callback, once every maintainEvery
// tasks, keeping maintenance partitioned by worker (§7.1).
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

// Config configures a Pool.
type Config struct {
	// Workers is the number of worker threads; defaults to GOMAXPROCS.
	Workers int
	// SlotsPerWorker is the task-slot count per worker (the paper's
	// evaluation default is 32). Defaults to 1.
	SlotsPerWorker int
	// QueueDepth bounds the total queued-task backlog; Submit blocks when
	// every per-worker queue is full. Defaults to 4 × total slots. The
	// budget is split evenly across the per-worker queues.
	QueueDepth int
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

	pool *Pool
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
// elapses (0 = no timeout). Returns false on timeout. The worker keeps
// executing its other slots while this one is parked.
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

// worker is one worker's share of the pool: its task queue and the parking
// state of its slots.
type worker struct {
	id int
	q  chan Task
	// kick wakes one parked slot of this worker to sweep the other
	// workers' queues. One pending kick is enough: the woken slot passes
	// the wake-up on while backlog remains (see wake).
	kick chan struct{}
	// idle counts this worker's slots that have announced a park and not
	// yet left it. Submitters read it to decide whether a task sent to q
	// already has a receiver.
	idle atomic.Int32
	// sinceMaintain counts completed tasks towards the next Maintain call.
	// It is the worker's, not each slot's: parked slots take tasks in
	// strict rotation, so per-slot counters would all come due together
	// and run a worker's maintenance rounds back to back.
	sinceMaintain atomic.Int64
}

// Pool is a running co-routine pool. Tasks are sharded across per-worker
// queues so concurrent submitters and workers no longer rendezvous on one
// channel; an idle worker whose own queue is empty steals from siblings.
type Pool struct {
	cfg     Config
	workers []*worker
	rr      atomic.Uint64
	wg      sync.WaitGroup
	slots   []*Slot
	// Stop against in-flight Submits: a Submit checks stopped and joins
	// submitting under stopMu, then sends holding no lock; Stop sets stopped,
	// closes stopping to release blocked senders, and closes the queues only
	// once submitting has drained. No send can reach a closed queue.
	stopMu      sync.RWMutex
	stopped     bool
	stopping    chan struct{}
	submitting  sync.WaitGroup
	executed    atomic.Int64
	stolen      atomic.Int64
	idleWakeups atomic.Int64
}

// New creates a pool; call Start to spin up the slots.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SlotsPerWorker <= 0 {
		cfg.SlotsPerWorker = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers * cfg.SlotsPerWorker
	}
	perWorker := cfg.QueueDepth / cfg.Workers
	if perWorker < 1 {
		perWorker = 1
	}
	workers := make([]*worker, cfg.Workers)
	for i := range workers {
		workers[i] = &worker{id: i, q: make(chan Task, perWorker), kick: make(chan struct{}, 1)}
	}
	return &Pool{cfg: cfg, workers: workers, stopping: make(chan struct{})}
}

// NumSlots returns the total task-slot count.
func (p *Pool) NumSlots() int { return p.cfg.Workers * p.cfg.SlotsPerWorker }

// Slots returns the slot contexts (valid after Start).
func (p *Pool) Slots() []*Slot { return p.slots }

// Executed returns the number of completed tasks.
func (p *Pool) Executed() int64 { return p.executed.Load() }

// QueueDepth returns the number of tasks waiting across all worker
// queues — the admission-control backlog.
func (p *Pool) QueueDepth() int {
	n := 0
	for _, w := range p.workers {
		n += len(w.q)
	}
	return n
}

// Stolen returns the number of tasks executed by a worker other than the
// one they were queued on.
func (p *Pool) Stolen() int64 { return p.stolen.Load() }

// IdleWakeups returns how often a parked slot was woken and found no task
// (another slot got there first). An idle pool adds none.
func (p *Pool) IdleWakeups() int64 { return p.idleWakeups.Load() }

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
			s := &Slot{Worker: w, ID: w*p.cfg.SlotsPerWorker + i, pool: p, Waits: p.cfg.Waits}
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

func (p *Pool) run(s *Slot) {
	defer p.wg.Done()
	w := p.workers[s.Worker]
	for {
		// Pull when vacant: own queue first, then the siblings'.
		task := p.sweep(w)
		if task == nil {
			var open bool
			if task, open = p.park(w); !open {
				// Stop closed the queues; run what is still buffered.
				for task = p.sweep(w); task != nil; task = p.sweep(w) {
					p.exec(s, task)
				}
				return
			}
			if task == nil {
				continue
			}
		}
		p.exec(s, task)
	}
}

func (p *Pool) exec(s *Slot, task Task) {
	task(s)
	p.executed.Add(1)
	if p.cfg.Maintain != nil && p.workers[s.Worker].sinceMaintain.Add(1)%maintainEvery == 0 {
		p.cfg.Maintain(s.Worker)
	}
}

// sweep takes one task without blocking, from w's own queue or else from
// the first sibling queue that has one. A closed queue still yields its
// buffered backlog, so a stopped pool drains fully.
func (p *Pool) sweep(w *worker) Task {
	for off := 0; off < len(p.workers); off++ {
		from := p.workers[(w.id+off)%len(p.workers)]
		select {
		case task, ok := <-from.q:
			if !ok {
				continue
			}
			if off > 0 {
				p.stolen.Add(1)
			}
			p.wake(from)
			return task
		default:
		}
	}
	return nil
}

// wake makes sure a task queued on home will be looked at: called by the
// submitter that queued it, and by a slot that took a task and leaves more
// behind (so one kick drains a backlog of any length through however many
// slots are parked). A parked or parking slot of home receives from the
// queue itself; failing that, one parked slot of another worker is kicked
// to come and steal. With no slot parked anywhere every slot is busy, and
// the first to finish sweeps all queues.
func (p *Pool) wake(home *worker) {
	if len(home.q) > 0 && home.idle.Load() == 0 {
		p.kickSibling(home)
	}
}

// kickSibling wakes one parked slot of a worker other than w.
func (p *Pool) kickSibling(w *worker) {
	for off := 1; off < len(p.workers); off++ {
		o := p.workers[(w.id+off)%len(p.workers)]
		if o.idle.Load() > 0 {
			select {
			case o.kick <- struct{}{}:
				return
			default: // a kick is already on its way to o
			}
		}
	}
}

// park blocks a vacant slot until a task arrives on its worker's queue or
// a kick sends it stealing. It returns the task (nil when a kick found
// nothing left to take) and false once the pool is stopped.
//
// No wake-up is lost, and none needs a timer. A submitter enqueues first
// and reads idle second; a parking slot raises idle first and sweeps
// second. Whichever order the two interleave in, either the submitter sees
// the slot as idle (and the slot's sweep or receive finds the task, or the
// kick reaches it), or the slot's sweep already sees the task. A slot that
// was counted idle while it was in fact leaving with a task makes up for
// the kick a submitter skipped on its account: once it has lowered idle,
// unpark re-checks the queue and any kick nobody is parked to receive.
//
// A kick does not say whose backlog it was sent for, and the slot it wakes
// sweeps its own queue first. If it leaves with a task, that task may not be
// the one the kick was about, so it looks at every queue again on its way
// out and kicks for any that still has tasks and no parked slot.
func (p *Pool) park(w *worker) (Task, bool) {
	w.idle.Add(1)
	task := p.sweep(w)
	if task != nil {
		p.unpark(w)
		return task, true
	}
	select {
	case task, ok := <-w.q:
		p.unpark(w)
		return task, ok
	case <-w.kick:
	}
	task = p.sweep(w)
	p.unpark(w)
	if task == nil {
		p.idleWakeups.Add(1)
		return nil, true
	}
	for _, o := range p.workers {
		p.wake(o)
	}
	return task, true
}

// unpark takes the slot out of the idle count. If it was the last one,
// tasks queued and kicks sent on the strength of that count have no
// receiver left: pass them on to another worker's parked slots.
func (p *Pool) unpark(w *worker) {
	if w.idle.Add(-1) > 0 {
		return
	}
	p.wake(w)
	select {
	case <-w.kick:
		p.kickSibling(w)
	default:
	}
}

// Submit enqueues a task, blocking while every worker queue is full
// (admission control). It fails once the pool is stopped, also when Stop
// arrives while it is blocked. Placement is round-robin with overflow onto
// any queue with room, so load spreads without a global rendezvous point.
func (p *Pool) Submit(t Task) error {
	p.stopMu.RLock()
	if p.stopped {
		p.stopMu.RUnlock()
		return ErrStopped
	}
	p.submitting.Add(1)
	p.stopMu.RUnlock()
	defer p.submitting.Done()
	home := int(p.rr.Add(1) % uint64(len(p.workers)))
	for off := 0; off < len(p.workers); off++ {
		w := p.workers[(home+off)%len(p.workers)]
		select {
		case w.q <- t:
			p.wake(w)
			return nil
		default:
		}
	}
	// All full: block on the round-robin choice, holding no lock, so tasks
	// that themselves Submit keep running and draining.
	w := p.workers[home]
	select {
	case w.q <- t:
		p.wake(w)
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

// Stop drains the queues and waits for all slots to exit. Safe to call
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
	for _, w := range p.workers {
		close(w.q)
	}
	p.wg.Wait()
}
