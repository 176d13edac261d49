package park

import (
	"testing"
	"time"
)

func TestWaitFiresAndTimesOut(t *testing.T) {
	var p Timer
	ch := make(chan struct{}, 1)
	ch <- struct{}{}
	if !p.Wait(ch, time.Second) {
		t.Fatal("Wait missed a ready channel")
	}
	start := time.Now()
	if p.Wait(ch, 5*time.Millisecond) {
		t.Fatal("Wait reported a fire on an empty channel")
	}
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("timed out after %v, before the 5ms timeout", el)
	}
}

// A tick the previous arming left behind must not end the next wait early.
func TestWaitIgnoresStaleTick(t *testing.T) {
	var p Timer
	ch := make(chan struct{})
	p.Wait(ch, time.Millisecond) // arms and fires the timer
	p.t.Reset(time.Microsecond)  // leave a tick in the channel, as a lost Stop would
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	if p.Wait(ch, 20*time.Millisecond) {
		t.Fatal("Wait reported a fire on an empty channel")
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("stale tick ended the wait after %v", el)
	}
}

func TestWaitDoesNotAllocatePerCall(t *testing.T) {
	var p Timer
	ch := make(chan struct{}, 1)
	p.Wait(ch, time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		ch <- struct{}{}
		p.Wait(ch, time.Minute)
	})
	if allocs != 0 {
		t.Fatalf("Wait allocates %.1f objects per call", allocs)
	}
}
