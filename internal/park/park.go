// Package park provides the bounded wait the request path parks on: block
// until a channel fires or a timeout elapses, without allocating a timer
// per wait.
package park

import "time"

// Timer is a reusable one-shot timer. The zero value is ready to use. A
// Timer has one owner: Wait must not be called concurrently.
type Timer struct {
	t *time.Timer
}

// Wait blocks until ch fires (true) or d elapses (false). The underlying
// timer is allocated on first use and re-armed on every call. A tick left
// in its channel by an earlier arming (Stop lost the race with the firing)
// is told apart from this arming's by the deadline and waited past, so a
// stale tick can never report a timeout early.
func (p *Timer) Wait(ch <-chan struct{}, d time.Duration) bool {
	deadline := time.Now().Add(d)
	if p.t == nil {
		p.t = time.NewTimer(d)
	} else {
		p.t.Reset(d)
	}
	for {
		select {
		case <-ch:
			if !p.t.Stop() {
				select {
				case <-p.t.C:
				default:
				}
			}
			return true
		case <-p.t.C:
			rest := time.Until(deadline)
			if rest <= 0 {
				return false
			}
			p.t.Reset(rest)
		}
	}
}
