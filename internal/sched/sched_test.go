package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phoebedb/internal/metrics"
)

func TestAllTasksExecute(t *testing.T) {
	p := New(Config{Workers: 2, SlotsPerWorker: 4})
	p.Start()
	var count atomic.Int64
	const n = 500
	for i := 0; i < n; i++ {
		if err := p.Submit(func(s *Slot) { count.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	p.Stop()
	if count.Load() != n {
		t.Fatalf("executed %d tasks, want %d", count.Load(), n)
	}
	if p.Executed() != n {
		t.Fatalf("Executed() = %d", p.Executed())
	}
}

func TestSlotIdentities(t *testing.T) {
	p := New(Config{Workers: 3, SlotsPerWorker: 2})
	p.Start()
	defer p.Stop()
	if p.NumSlots() != 6 {
		t.Fatalf("NumSlots = %d", p.NumSlots())
	}
	seen := make(map[int]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		p.Submit(func(s *Slot) {
			defer wg.Done()
			mu.Lock()
			seen[s.ID] = true
			mu.Unlock()
			if s.Worker != s.ID/2 {
				t.Errorf("slot %d has worker %d", s.ID, s.Worker)
			}
			time.Sleep(20 * time.Millisecond) // hold the slot so others run
		})
	}
	wg.Wait()
	if len(seen) != 6 {
		t.Fatalf("tasks ran on %d distinct slots, want 6", len(seen))
	}
}

func TestSubmitWait(t *testing.T) {
	p := New(Config{Workers: 1, SlotsPerWorker: 1})
	p.Start()
	defer p.Stop()
	ran := false
	if err := p.SubmitWait(func(s *Slot) { ran = true }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("SubmitWait returned before task ran")
	}
}

func TestSubmitAfterStop(t *testing.T) {
	p := New(Config{Workers: 1, SlotsPerWorker: 1})
	p.Start()
	p.Stop()
	if err := p.Submit(func(s *Slot) {}); err != ErrStopped {
		t.Fatalf("err = %v", err)
	}
	p.Stop() // idempotent
}

func TestStopDrainsQueue(t *testing.T) {
	p := New(Config{Workers: 1, SlotsPerWorker: 1, QueueDepth: 100})
	p.Start()
	var count atomic.Int64
	for i := 0; i < 50; i++ {
		p.Submit(func(s *Slot) { count.Add(1) })
	}
	p.Stop()
	if count.Load() != 50 {
		t.Fatalf("drained %d tasks", count.Load())
	}
}

func TestLowUrgencyYieldDoesNotBlockWorker(t *testing.T) {
	// One worker with two slots: a task parked on a low-urgency wait must
	// not stop the other slot from pulling tasks.
	p := New(Config{Workers: 1, SlotsPerWorker: 2})
	p.Start()
	defer p.Stop()
	wake := make(chan struct{})
	parked := make(chan struct{})
	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	p.Submit(func(s *Slot) {
		defer wg.Done()
		close(parked)
		if !s.YieldLow(wake, time.Second) {
			t.Error("low-urgency wait timed out")
		}
		mu.Lock()
		order = append(order, "parked-task")
		mu.Unlock()
	})
	<-parked
	p.Submit(func(s *Slot) {
		defer wg.Done()
		mu.Lock()
		order = append(order, "other-task")
		mu.Unlock()
		close(wake)
	})
	wg.Wait()
	if len(order) != 2 || order[0] != "other-task" {
		t.Fatalf("order = %v: parked slot blocked the worker", order)
	}
}

func TestYieldLowTimeout(t *testing.T) {
	p := New(Config{Workers: 1, SlotsPerWorker: 1})
	p.Start()
	defer p.Stop()
	var timedOut bool
	p.SubmitWait(func(s *Slot) {
		timedOut = !s.YieldLow(make(chan struct{}), 5*time.Millisecond)
	})
	if !timedOut {
		t.Fatal("YieldLow did not time out")
	}
}

func TestYieldCounters(t *testing.T) {
	p := New(Config{Workers: 1, SlotsPerWorker: 1})
	p.Start()
	defer p.Stop()
	p.SubmitWait(func(s *Slot) {
		s.YieldHigh()
		s.YieldHigh()
		ch := make(chan struct{})
		close(ch)
		s.YieldLow(ch, 0)
	})
	s := p.Slots()[0]
	if s.HighYields() != 2 || s.LowYields() != 1 {
		t.Fatalf("yields = %d/%d", s.HighYields(), s.LowYields())
	}
}

func TestMaintainCallback(t *testing.T) {
	var maintained atomic.Int64
	p := New(Config{
		Workers:        1,
		SlotsPerWorker: 1,
		Maintain:       func(worker int) { maintained.Add(1) },
	})
	p.Start()
	for i := 0; i < 3*maintainEvery+5; i++ {
		p.Submit(func(s *Slot) {})
	}
	p.Stop()
	if got := maintained.Load(); got != 3 {
		t.Fatalf("maintain ran %d times, want 3", got)
	}
}

func TestMetricsRecorderWiring(t *testing.T) {
	rec := metrics.NewRecorder()
	p := New(Config{Workers: 2, SlotsPerWorker: 2, Recorder: rec})
	p.Start()
	for i := 0; i < 20; i++ {
		p.Submit(func(s *Slot) {
			s.Metrics.Add(metrics.CompCompute, time.Microsecond)
		})
	}
	p.Stop()
	b := rec.Aggregate()
	if b.Nanos[metrics.CompCompute] != 20*1000 {
		t.Fatalf("compute nanos = %d", b.Nanos[metrics.CompCompute])
	}
}

func TestDefaults(t *testing.T) {
	p := New(Config{})
	if p.cfg.Workers <= 0 || p.cfg.SlotsPerWorker != 1 || p.cfg.QueueDepth <= 0 {
		t.Fatalf("defaults not applied: %+v", p.cfg)
	}
}

// An idle pool must not wake anything: every slot parks on its worker's
// queue and stays there until a task or a kick arrives.
func TestIdlePoolDoesNotWake(t *testing.T) {
	p := New(Config{Workers: 2, SlotsPerWorker: 32})
	p.Start()
	defer p.Stop()
	// Run one task per slot so every slot has been through a park cycle.
	for i := 0; i < p.NumSlots(); i++ {
		if err := p.SubmitWait(func(s *Slot) {}); err != nil {
			t.Fatal(err)
		}
	}
	// SubmitWait returns from inside the task; let the last one be counted.
	for p.Executed() != int64(p.NumSlots()) {
		time.Sleep(time.Millisecond)
	}
	before, execBefore := p.IdleWakeups(), p.Executed()
	time.Sleep(200 * time.Millisecond)
	if got := p.IdleWakeups() - before; got != 0 {
		t.Fatalf("idle pool woke %d slots in 200ms", got)
	}
	if p.Executed() != execBefore {
		t.Fatal("idle pool executed tasks")
	}
}

// A task queued on a worker whose slots are all blocked must be run by a
// parked slot of the sibling worker, woken by the submitter's kick.
func TestBlockedWorkerBacklogIsStolen(t *testing.T) {
	p := New(Config{Workers: 2, SlotsPerWorker: 2})
	p.Start()
	release := make(chan struct{})
	defer func() {
		close(release)
		p.Stop()
	}()
	// Block both slots of one worker. Placement is round-robin, so keep
	// submitting blockers until one worker holds two; the sibling's excess
	// blockers are released again.
	held := make(map[int][]chan struct{})
	blocked := -1
	for blocked < 0 {
		entered := make(chan int)
		free := make(chan struct{})
		p.Submit(func(s *Slot) {
			entered <- s.Worker
			select {
			case <-free:
			case <-release:
			}
		})
		w := <-entered
		held[w] = append(held[w], free)
		if len(held[w]) == 2 {
			blocked = w
		}
	}
	for _, free := range held[1-blocked] {
		close(free)
	}
	for p.workers[1-blocked].idle.Load() != 2 { // both sibling slots parked again
		time.Sleep(time.Millisecond)
	}
	// Queue straight onto the blocked worker, as Submit does for its
	// round-robin choice, and wake as Submit does.
	for i := 0; i < 4; i++ {
		ran := make(chan int, 1)
		start := time.Now()
		w := p.workers[blocked]
		w.q <- func(s *Slot) { ran <- s.Worker }
		p.wake(w)
		select {
		case by := <-ran:
			if by == blocked {
				t.Fatalf("task ran on the blocked worker")
			}
		case <-time.After(50 * time.Millisecond):
			t.Fatalf("task behind a blocked worker not stolen within 50ms (waited %v)", time.Since(start))
		}
	}
	if p.Stolen() < 4 {
		t.Fatalf("Stolen() = %d, want >= 4", p.Stolen())
	}
}

// A kick is sent for one worker's backlog, but the slot it wakes sweeps its
// own queue first. When a task landed there meanwhile (its submitter saw the
// slot parked and sent no kick), the slot leaves with that task and must pass
// the wake-up on: the backlog still has no one looking at it, and another
// worker has a parked slot.
func TestKickSurvivesOwnQueueTask(t *testing.T) {
	p := New(Config{Workers: 3, SlotsPerWorker: 1})
	p.Start()
	release := make(chan struct{})
	defer func() {
		close(release)
		p.Stop()
	}()
	a, b, c := p.workers[0], p.workers[1], p.workers[2]
	waitParked := func(ws ...*worker) {
		for _, w := range ws {
			for w.idle.Load() != 1 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	waitParked(a, b, c)
	entered := make(chan struct{})
	b.q <- func(*Slot) {
		close(entered)
		<-release
	}
	<-entered
	for round := 0; round < 50; round++ {
		waitParked(a, c)
		ran := make(chan struct{})
		// b's only slot is busy: this kicks c, the next worker round.
		b.q <- func(*Slot) { close(ran) }
		p.wake(b)
		// c's slot is parked, so this sends no kick; if it is the kick that
		// wakes the slot, it finds this task first and holds on to it.
		c.q <- func(*Slot) {
			select {
			case <-ran:
			case <-release:
			}
		}
		p.wake(c)
		select {
		case <-ran:
		case <-time.After(50 * time.Millisecond):
			t.Fatalf("round %d: backlog of the blocked worker not run within 50ms with a slot parked (idle a=%d c=%d)",
				round, a.idle.Load(), c.idle.Load())
		}
	}
}

// Eight submitters race 10k tasks each through the pool, then Stop races a
// straggling submitter: every accepted task runs, every refused one
// reports ErrStopped, and nothing panics.
func TestConcurrentSubmitAndStop(t *testing.T) {
	p := New(Config{Workers: 4, SlotsPerWorker: 4})
	p.Start()
	const submitters, each = 8, 10000
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if err := p.Submit(func(s *Slot) { ran.Add(1) }); err != nil {
					t.Errorf("Submit before Stop: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var accepted atomic.Int64
	stragglers := make(chan struct{})
	go func() {
		defer close(stragglers)
		for {
			if err := p.Submit(func(s *Slot) { ran.Add(1) }); err != nil {
				if err != ErrStopped {
					t.Errorf("Submit during Stop: %v", err)
				}
				return
			}
			accepted.Add(1)
		}
	}()
	time.Sleep(time.Millisecond)
	p.Stop()
	<-stragglers
	if want := int64(submitters*each) + accepted.Load(); ran.Load() != want {
		t.Fatalf("ran %d tasks, accepted %d", ran.Load(), want)
	}
}

// Tasks submit tasks (a wire session hands its slot to the next session
// that way). Stop must not wedge when it arrives while every slot is inside
// such a nested Submit and an outside Submit is blocked on full queues.
func TestStopWithNestedAndBlockedSubmits(t *testing.T) {
	p := New(Config{Workers: 1, SlotsPerWorker: 1, QueueDepth: 1})
	p.Start()
	var ran, accepted atomic.Int64
	count := func(*Slot) { ran.Add(1) }
	submit := func() {
		if err := p.Submit(count); err == nil {
			accepted.Add(1)
		} else if err != ErrStopped {
			t.Errorf("Submit: %v", err)
		}
	}
	entered, nest := make(chan struct{}), make(chan struct{})
	p.Submit(func(*Slot) {
		close(entered)
		<-nest
		submit()
	})
	<-entered
	submit() // fills the one-deep queue
	outer := make(chan struct{})
	go func() {
		defer close(outer)
		submit() // blocks: the queue is full and the slot is busy
	}()
	time.Sleep(10 * time.Millisecond)
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		p.Stop()
	}()
	time.Sleep(10 * time.Millisecond)
	close(nest)
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return with a nested and a blocked Submit in flight")
	}
	<-outer
	if ran.Load() != accepted.Load() {
		t.Fatalf("ran %d tasks, accepted %d", ran.Load(), accepted.Load())
	}
}

// YieldLow re-arms the slot's one timer: no allocation per park.
func TestYieldLowDoesNotAllocate(t *testing.T) {
	s := &Slot{}
	ch := make(chan struct{}, 1)
	ch <- struct{}{}
	s.YieldLow(ch, time.Minute)
	allocs := testing.AllocsPerRun(100, func() {
		ch <- struct{}{}
		s.YieldLow(ch, time.Minute)
	})
	if allocs != 0 {
		t.Fatalf("YieldLow allocates %.1f objects per park", allocs)
	}
}

func BenchmarkSubmitThroughput(b *testing.B) {
	p := New(Config{Workers: 4, SlotsPerWorker: 8})
	p.Start()
	defer p.Stop()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p.SubmitWait(func(s *Slot) {})
		}
	})
}
