package lock

import (
	"errors"
	"sync"
	"testing"
	"time"

	"phoebedb/internal/undo"
)

func TestTupleLockModes(t *testing.T) {
	e := &undo.TwinEntry{}
	if !TryLockTuple(e, false, 1) || !TryLockTuple(e, false, 2) {
		t.Fatal("shared tuple locks should coexist")
	}
	if TryLockTuple(e, true, 3) {
		t.Fatal("exclusive granted over shared")
	}
	UnlockTuple(e, false)
	UnlockTuple(e, false)
	if !TryLockTuple(e, true, 3) {
		t.Fatal("exclusive not granted on free tuple")
	}
	if e.LockOwnerXID != 3 {
		t.Fatal("owner xid not recorded")
	}
	if TryLockTuple(e, false, 4) || TryLockTuple(e, true, 4) {
		t.Fatal("lock granted over exclusive")
	}
	UnlockTuple(e, true)
	if e.LockState != 0 || e.LockOwnerXID != 0 {
		t.Fatal("exclusive unlock did not reset state")
	}
}

func TestTupleUnlockWakesWaiters(t *testing.T) {
	e := &undo.TwinEntry{}
	TryLockTuple(e, true, 1)
	ch := e.AddWaiter()
	UnlockTuple(e, true)
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("waiter not woken on unlock")
	}
}

func TestTableLockCompatibility(t *testing.T) {
	cases := []struct {
		held, want Mode
		ok         bool
	}{
		{ModeIS, ModeIS, true},
		{ModeIS, ModeIX, true},
		{ModeIS, ModeS, true},
		{ModeIS, ModeX, false},
		{ModeIX, ModeIX, true},
		{ModeIX, ModeS, false},
		{ModeIX, ModeX, false},
		{ModeS, ModeS, true},
		{ModeS, ModeIX, false},
		{ModeX, ModeIS, false},
		{ModeX, ModeX, false},
	}
	for _, c := range cases {
		var l TableLock
		if !l.TryLock(c.held) {
			t.Fatalf("could not acquire %v on empty lock", c.held)
		}
		if got := l.TryLock(c.want); got != c.ok {
			t.Errorf("held %v, TryLock(%v) = %v, want %v", c.held, c.want, got, c.ok)
		}
	}
}

func TestTableLockWaitAndRelease(t *testing.T) {
	var l TableLock
	if err := l.Lock(ModeX, 0); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- l.Lock(ModeS, time.Second) }()
	select {
	case <-acquired:
		t.Fatal("S granted while X held")
	case <-time.After(10 * time.Millisecond):
	}
	l.Unlock(ModeX)
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	if l.Granted(ModeS) != 1 {
		t.Fatal("grant count wrong")
	}
}

func TestTableLockTimeout(t *testing.T) {
	var l TableLock
	l.TryLock(ModeX)
	if err := l.Lock(ModeIX, 5*time.Millisecond); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestTableLockUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unlock of unheld mode")
		}
	}()
	var l TableLock
	l.Unlock(ModeS)
}

func TestTableLockConcurrentIX(t *testing.T) {
	var l TableLock
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := l.Lock(ModeIX, time.Second); err != nil {
					t.Error(err)
					return
				}
				l.Unlock(ModeIX)
			}
		}()
	}
	wg.Wait()
	if l.Granted(ModeIX) != 0 {
		t.Fatal("grants leaked")
	}
}

func TestModeString(t *testing.T) {
	if ModeIS.String() != "IS" || ModeIX.String() != "IX" || ModeS.String() != "S" || ModeX.String() != "X" {
		t.Fatal("mode names wrong")
	}
}
