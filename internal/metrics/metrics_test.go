package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestSlotAccumulationAndAggregate(t *testing.T) {
	r := NewRecorder()
	s1 := r.NewSlot()
	s2 := r.NewSlot()
	s1.Add(CompWAL, 100*time.Nanosecond)
	s1.Add(CompCompute, 50*time.Nanosecond)
	s2.Add(CompWAL, 25*time.Nanosecond)
	b := r.Aggregate()
	if b.Nanos[CompWAL] != 125 {
		t.Fatalf("WAL nanos = %d", b.Nanos[CompWAL])
	}
	if b.Nanos[CompCompute] != 50 {
		t.Fatalf("Compute nanos = %d", b.Nanos[CompCompute])
	}
}

func TestTrackChargesTime(t *testing.T) {
	r := NewRecorder()
	s := r.NewSlot()
	s.Track(CompGC, func() { time.Sleep(2 * time.Millisecond) })
	b := r.Aggregate()
	if b.Nanos[CompGC] < int64(time.Millisecond) {
		t.Fatalf("Track charged only %d ns", b.Nanos[CompGC])
	}
}

func TestComponentNames(t *testing.T) {
	if CompWAL.String() != "WAL" {
		t.Fatalf("CompWAL = %q", CompWAL.String())
	}
	if Component(99).String() != "unknown" {
		t.Fatal("out-of-range component name")
	}
	for c := 0; c < NumComponents; c++ {
		if ComponentNames[c] == "" {
			t.Fatalf("component %d has no name", c)
		}
	}
}

func TestIOCountersConcurrent(t *testing.T) {
	var io IOCounters
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				io.DataRead.Add(1)
				io.DataWrite.Add(2)
				io.WALWrite.Add(3)
			}
		}()
	}
	wg.Wait()
	s := io.Snapshot()
	if s.DataRead != 4000 || s.DataWrite != 8000 || s.WALWrite != 12000 {
		t.Fatalf("snapshot = %+v", s)
	}
}
