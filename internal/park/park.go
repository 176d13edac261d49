// Package park provides the bounded wait the request path parks on: block
// until a channel fires or a timeout elapses, without allocating a timer
// per wait.
//
// The deadline is a backstop, not a schedule. When nothing else wakes the
// process, a Go timer armed for 50, 100 or 400µs fires after ~1.1ms
// median on a 2-vCPU KVM guest (1.09–1.10ms p50 for each, 300 waits
// apiece; 1ms fires at 1.10ms, 2ms at 2.2ms), while a 105-byte append plus
// fsync on the same guest's ext4 takes 70–180µs. A request-path wait must
// therefore expect a poke — a peer that ends it — and park only when one
// is due: a wait that runs to a sub-millisecond deadline costs about a
// millisecond whatever the deadline says. The group-commit leader
// (internal/wal) parks only when another commit is expected within one
// flush, for that reason.
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
