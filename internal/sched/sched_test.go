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
	p := New(Config{Workers: 1, SlotsPerWorker: 1})
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
	if p.cfg.Workers <= 0 || p.cfg.SlotsPerWorker != 1 {
		t.Fatalf("defaults not applied: %+v", p.cfg)
	}
	// Before Start nothing pulls, so the queue fills to its constant depth.
	var ran atomic.Int64
	depth := queuePerSlot * p.NumSlots()
	for i := 0; i < depth; i++ {
		if err := p.Submit(func(*Slot) { ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if p.QueueDepth() != depth || cap(p.q) != depth {
		t.Fatalf("QueueDepth() = %d, capacity %d, want %d", p.QueueDepth(), cap(p.q), depth)
	}
	p.Start()
	p.Stop()
	if ran.Load() != int64(depth) {
		t.Fatalf("drained %d of %d queued tasks", ran.Load(), depth)
	}
}

// An idle pool must not run anything: every vacant slot waits in its one
// receive on the run queue until a task arrives.
func TestIdlePoolDoesNotWake(t *testing.T) {
	p := New(Config{Workers: 2, SlotsPerWorker: 32})
	p.Start()
	defer p.Stop()
	// Run one task per slot so every slot has been through a vacant wait.
	for i := 0; i < p.NumSlots(); i++ {
		if err := p.SubmitWait(func(s *Slot) {}); err != nil {
			t.Fatal(err)
		}
	}
	// SubmitWait returns from inside the task; let the last one be counted.
	for p.Executed() != int64(p.NumSlots()) {
		time.Sleep(time.Millisecond)
	}
	execBefore := p.Executed()
	time.Sleep(200 * time.Millisecond)
	if p.Executed() != execBefore {
		t.Fatal("idle pool executed tasks")
	}
}

// With every slot but one blocked, each task submitted runs on the one
// vacant slot promptly: blocked slots hold no backlog of their own.
func TestBacklogRunsBesideBlockedSlots(t *testing.T) {
	p := New(Config{Workers: 2, SlotsPerWorker: 2})
	p.Start()
	release := make(chan struct{})
	defer func() {
		close(release)
		p.Stop()
	}()
	entered := make(chan int)
	blocked := map[int]bool{}
	for i := 0; i < p.NumSlots()-1; i++ {
		p.Submit(func(s *Slot) {
			entered <- s.ID
			<-release
		})
		blocked[<-entered] = true
	}
	for i := 0; i < 4; i++ {
		ran := make(chan int, 1)
		start := time.Now()
		if err := p.Submit(func(s *Slot) { ran <- s.ID }); err != nil {
			t.Fatal(err)
		}
		select {
		case id := <-ran:
			if blocked[id] {
				t.Fatalf("task ran on blocked slot %d", id)
			}
		case <-time.After(50 * time.Millisecond):
			t.Fatalf("task %d not run within 50ms with a slot vacant (waited %v)", i, time.Since(start))
		}
	}
}

// Every slot of every worker pulls from the one queue: rounds of tasks
// that each wait for their whole round occupy all four slots at once, and
// each worker's completions bring its Maintain call due.
func TestOneQueueFeedsEverySlot(t *testing.T) {
	var maintained [2]atomic.Int64
	p := New(Config{
		Workers:        2,
		SlotsPerWorker: 2,
		Maintain:       func(worker int) { maintained[worker].Add(1) },
	})
	p.Start()
	const rounds = maintainEvery
	for r := 0; r < rounds; r++ {
		var entered, done sync.WaitGroup
		entered.Add(p.NumSlots())
		done.Add(p.NumSlots())
		var mu sync.Mutex
		slots := map[int]int{} // slot ID -> worker
		for i := 0; i < p.NumSlots(); i++ {
			p.Submit(func(s *Slot) {
				defer done.Done()
				mu.Lock()
				slots[s.ID] = s.Worker
				mu.Unlock()
				entered.Done()
				entered.Wait()
			})
		}
		done.Wait()
		if r > 0 {
			continue
		}
		workers := map[int]bool{}
		for _, w := range slots {
			workers[w] = true
		}
		if len(slots) != 4 || len(workers) != 2 {
			t.Fatalf("4 blocked tasks held slots %v, want 4 distinct slots across 2 workers", slots)
		}
	}
	p.Stop()
	// Each round runs two tasks per worker: 2*rounds completions each.
	for w := range maintained {
		if got := maintained[w].Load(); got != 2 {
			t.Fatalf("Maintain(%d) ran %d times, want 2", w, got)
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
// such a nested Submit and an outside Submit is blocked on a full queue.
func TestStopWithNestedAndBlockedSubmits(t *testing.T) {
	p := New(Config{Workers: 1, SlotsPerWorker: 1})
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
	for i := 0; i < queuePerSlot; i++ {
		submit() // fills the queue
	}
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
