// Package btree implements the index B-Tree (§5.1, §5.3): an ordered map
// from user-defined keys (order-preserving byte strings, see rel.EncodeKey)
// to row_ids, concurrent under the hybrid lock strategy of §7.2.
//
// Readers traverse with Optimistic Lock Coupling: they acquire nothing,
// validate node versions after each step, and restart on interference.
// After a bounded number of restarts they fall back to pessimistic shared
// latches — the hybrid strategy the paper adopts to cap abort/retry rates.
// Writers also descend optimistically and upgrade only the target leaf to
// exclusive; when the leaf is full (a split is needed) or upgrades keep
// failing, they fall back to exclusive lock coupling from the root with
// preemptive splits, so structure changes never propagate upward while
// latches are dropped.
//
// Leaves change in place, as in the paper. A leaf is a count, an array of
// slot pointers to entries (an immutable key and an atomic value) and a
// next pointer; a writer holding the leaf's exclusive latch shifts slots,
// replaces a value or trims a split leaf with single-word atomic stores.
// Every word an optimistic reader loads is an atomic, so the race is one
// Go's memory model allows: a reader that meets a torn leaf (a nil slot
// under a stale count) restarts, and the version bump on unlock
// invalidates anything else it saw. Scans copy a validated snapshot of each
// leaf before calling back. Inner nodes change only on a split and stay
// copy-on-write: a writer publishes a new immutable content record.
package btree

import (
	"bytes"
	"sync/atomic"

	"phoebedb/internal/latch"
)

// Degree is the maximum number of keys per node.
const Degree = 64

// optimisticRetries is how many OLC restarts an operation attempts before
// falling back to pessimistic latching.
const optimisticRetries = 8

// content is an inner node's immutable separator keys and children
// (len(keys)+1 of them), replaced as a whole when a child splits.
type content struct {
	keys     [][]byte
	children []*node
}

func (c *content) clone() *content {
	return &content{
		keys:     append(make([][]byte, 0, len(c.keys)+1), c.keys...),
		children: append(make([]*node, 0, len(c.children)+1), c.children...),
	}
}

// entry is one leaf key with its value. The key never changes; the value
// is replaced in place.
type entry struct {
	key []byte
	val atomic.Uint64
}

type node struct {
	lt   latch.Latch
	leaf bool // fixed at creation: a root split adds a new inner root

	c atomic.Pointer[content] // inner nodes

	// Leaves: entries sorted by key in slots[:count], nil above it.
	count atomic.Int32
	slots [Degree]atomic.Pointer[entry]
	next  atomic.Pointer[node] // leaf chain for range scans
}

func newInner(c *content) *node {
	n := &node{}
	n.c.Store(c)
	return n
}

// full reports whether n has no room for another key.
func (n *node) full() bool {
	if n.leaf {
		return n.count.Load() >= Degree
	}
	return len(n.c.Load().keys) >= Degree
}

// find binary-searches leaf n for key: i is the position of the first key
// >= key, and e the entry there if its key equals key. ok is false on a
// torn read — a nil slot below the count, which only an optimistic reader
// racing a writer can see; the caller restarts.
func (n *node) find(key []byte) (i int, e *entry, ok bool) {
	cnt := int(n.count.Load())
	lo, hi := 0, cnt
	for lo < hi {
		mid := (lo + hi) / 2
		m := n.slots[mid].Load()
		if m == nil {
			return 0, nil, false
		}
		if bytes.Compare(m.key, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < cnt {
		if e = n.slots[lo].Load(); e == nil {
			return 0, nil, false
		}
		if !bytes.Equal(e.key, key) {
			e = nil
		}
	}
	return lo, e, true
}

// childIndex returns which child of an inner node covers k: the child at
// the position of the first separator > k.
func childIndex(keys [][]byte, k []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Stats counts synchronization events: optimistic restarts and fallbacks
// to the pessimistic descents.
type Stats struct {
	OptimisticRestarts atomic.Int64
	SharedFallbacks    atomic.Int64
	ExclusiveFallbacks atomic.Int64
}

// Tree is a concurrent B-Tree. Create with New.
type Tree struct {
	root  atomic.Pointer[node]
	Stats Stats
}

// New returns an empty tree.
func New() *Tree {
	t := &Tree{}
	t.root.Store(&node{leaf: true})
	return t
}

// Lookup returns the value stored under key.
func (t *Tree) Lookup(key []byte) (uint64, bool) {
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		if v, ok, valid := t.lookupOptimistic(key); valid {
			return v, ok
		}
		t.Stats.OptimisticRestarts.Add(1)
	}
	t.Stats.SharedFallbacks.Add(1)
	return t.lookupShared(key)
}

// optimisticRoot loads the root and captures its version, verifying the
// pointer is still the root afterwards (a root split both replaces the
// pointer and mutates the old root, so either check catches it).
func (t *Tree) optimisticRoot() (*node, latch.Version, bool) {
	n := t.root.Load()
	v, got := n.lt.OptimisticRead(256)
	if !got || t.root.Load() != n {
		return nil, 0, false
	}
	return n, v, true
}

// optimisticLeaf descends without latches to the leaf covering key and
// returns it with its captured version; false means a validation failed.
func (t *Tree) optimisticLeaf(key []byte) (*node, latch.Version, bool) {
	n, nv, got := t.optimisticRoot()
	if !got {
		return nil, 0, false
	}
	for !n.leaf {
		c := n.c.Load()
		child := c.children[childIndex(c.keys, key)]
		cv, got := child.lt.OptimisticRead(256)
		if !got || !n.lt.Validate(nv) {
			return nil, 0, false
		}
		n, nv = child, cv
	}
	return n, nv, true
}

// lockedRoot returns the current root locked in the requested mode.
func (t *Tree) lockedRoot(exclusive bool) *node {
	for {
		n := t.root.Load()
		if exclusive {
			n.lt.LockExclusive(nil)
		} else {
			n.lt.LockShared(nil)
		}
		if t.root.Load() == n {
			return n
		}
		if exclusive {
			n.lt.UnlockExclusive()
		} else {
			n.lt.UnlockShared()
		}
	}
}

func (t *Tree) lookupOptimistic(key []byte) (val uint64, ok, valid bool) {
	n, nv, got := t.optimisticLeaf(key)
	if !got {
		return 0, false, false
	}
	_, e, whole := n.find(key)
	if e != nil {
		val = e.val.Load()
	}
	return val, e != nil, whole && n.lt.Validate(nv)
}

// sharedLeaf descends with shared lock coupling to the leaf covering key
// (the leftmost leaf when key is nil) and returns it shared-latched.
func (t *Tree) sharedLeaf(key []byte) *node {
	n := t.lockedRoot(false)
	for !n.leaf {
		c := n.c.Load()
		child := c.children[0]
		if key != nil {
			child = c.children[childIndex(c.keys, key)]
		}
		child.lt.LockShared(nil)
		n.lt.UnlockShared()
		n = child
	}
	return n
}

func (t *Tree) lookupShared(key []byte) (uint64, bool) {
	n := t.sharedLeaf(key)
	defer n.lt.UnlockShared()
	_, e, _ := n.find(key)
	if e == nil {
		return 0, false
	}
	return e.val.Load(), true
}

// lockedLeafOptimistic descends without latches and upgrades the target
// leaf to exclusive. It fails (nil) on validation conflicts or when the
// leaf is full and needsRoom is set — those cases take the pessimistic
// path.
func (t *Tree) lockedLeafOptimistic(key []byte, needsRoom bool) *node {
	n, nv, got := t.optimisticLeaf(key)
	if !got || needsRoom && n.count.Load() >= Degree || !n.lt.UpgradeToExclusive(nv) {
		return nil
	}
	return n
}

// lockedLeaf returns the leaf covering key exclusively latched, trying the
// optimistic descent first.
func (t *Tree) lockedLeaf(key []byte, needsRoom bool) *node {
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		if n := t.lockedLeafOptimistic(key, needsRoom); n != nil {
			return n
		}
		t.Stats.OptimisticRestarts.Add(1)
	}
	t.Stats.ExclusiveFallbacks.Add(1)
	return t.lockedLeafPessimistic(key)
}

// Insert stores val under key, replacing any existing value. It reports
// whether a new key was inserted (false = replaced).
func (t *Tree) Insert(key []byte, val uint64) bool {
	n := t.lockedLeaf(key, true)
	defer n.lt.UnlockExclusive()
	return n.put(key, val)
}

// InsertIfAbsent stores val under key if key is absent, or if it holds a
// value replace accepts (replace may be nil), and returns the value it
// found there (0 if none): the probe and the store are one step under the
// leaf's exclusive latch, so no other insert of key comes between them.
// stored reports whether val is now there.
func (t *Tree) InsertIfAbsent(key []byte, val uint64, replace func(old uint64) bool) (old uint64, stored bool) {
	n := t.lockedLeaf(key, true)
	defer n.lt.UnlockExclusive()
	i, e, _ := n.find(key)
	if e == nil {
		n.insertAt(i, key, val)
		return 0, true
	}
	old = e.val.Load()
	if replace == nil || !replace(old) {
		return old, false
	}
	e.val.Store(val)
	return old, true
}

// put stores val under key in the exclusively latched leaf n, which has
// room, reporting whether the key is new. A replace is one atomic store.
func (n *node) put(key []byte, val uint64) bool {
	i, e, _ := n.find(key)
	if e != nil {
		e.val.Store(val)
		return false
	}
	n.insertAt(i, key, val)
	return true
}

// insertAt adds key, which n lacks, at slot i of the exclusively latched
// leaf n, which has room: it copies the caller's bytes and shifts the
// slots above i up.
func (n *node) insertAt(i int, key []byte, val uint64) {
	e := &entry{key: append([]byte(nil), key...)}
	e.val.Store(val)
	cnt := int(n.count.Load())
	for j := cnt; j > i; j-- {
		n.slots[j].Store(n.slots[j-1].Load())
	}
	n.slots[i].Store(e)
	n.count.Store(int32(cnt + 1))
}

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key []byte) bool {
	n := t.lockedLeaf(key, false)
	defer n.lt.UnlockExclusive()
	i, e, _ := n.find(key)
	if e == nil {
		return false
	}
	n.removeAt(i)
	return true
}

// DeleteValue removes key while it holds val, reporting whether it did:
// the probe and the removal are one step under the leaf's exclusive
// latch, so a store of another value under key is never removed.
func (t *Tree) DeleteValue(key []byte, val uint64) bool {
	n := t.lockedLeaf(key, false)
	defer n.lt.UnlockExclusive()
	i, e, _ := n.find(key)
	if e == nil || e.val.Load() != val {
		return false
	}
	n.removeAt(i)
	return true
}

// removeAt drops slot i of the exclusively latched leaf n, shifting the
// slots above it down.
func (n *node) removeAt(i int) {
	cnt := int(n.count.Load())
	for j := i; j < cnt-1; j++ {
		n.slots[j].Store(n.slots[j+1].Load())
	}
	n.slots[cnt-1].Store(nil)
	n.count.Store(int32(cnt - 1))
}

// lockedLeafPessimistic descends with exclusive lock coupling, splitting
// full nodes preemptively, and returns the target leaf exclusively latched.
func (t *Tree) lockedLeafPessimistic(key []byte) *node {
	for {
		n := t.lockedRoot(true)
		if n.full() {
			// Split the root: build a new root above it, then restart the
			// descent — re-locking the proper child after publishing the
			// new root would race with writers entering through it.
			right, sep := n.split()
			t.root.Store(newInner(&content{keys: [][]byte{sep}, children: []*node{n, right}}))
			n.trim(right)
			n.lt.UnlockExclusive()
			continue
		}
		for !n.leaf {
			c := n.c.Load()
			ci := childIndex(c.keys, key)
			child := c.children[ci]
			child.lt.LockExclusive(nil)
			if child.full() {
				// Preemptive split under the exclusively held parent.
				right, sep := child.split()
				nc := c.clone()
				nc.keys = append(nc.keys, nil)
				copy(nc.keys[ci+1:], nc.keys[ci:])
				nc.keys[ci] = sep
				nc.children = append(nc.children, nil)
				copy(nc.children[ci+2:], nc.children[ci+1:])
				nc.children[ci+1] = right
				n.c.Store(nc)
				child.trim(right)
				if bytes.Compare(key, sep) >= 0 {
					child.lt.UnlockExclusive()
					child = right
					child.lt.LockExclusive(nil)
				}
			}
			n.lt.UnlockExclusive()
			n = child
		}
		return n
	}
}

// split builds the upper half of the full, exclusively latched node n as a
// new node and returns it with the separator key for the parent. n itself
// is unchanged until trim, which the caller runs after publishing right
// through the parent. right needs no latch: it is unreachable until then,
// except through n and its parent, which the caller holds.
func (n *node) split() (right *node, sep []byte) {
	if !n.leaf {
		c := n.c.Load()
		mid := len(c.keys) / 2
		return newInner(&content{keys: c.keys[mid+1:], children: c.children[mid+1:]}), c.keys[mid]
	}
	cnt := int(n.count.Load())
	mid := cnt / 2
	right = &node{leaf: true}
	for i := mid; i < cnt; i++ {
		right.slots[i-mid].Store(n.slots[i].Load())
	}
	right.count.Store(int32(cnt - mid))
	right.next.Store(n.next.Load())
	return right, n.slots[mid].Load().key
}

// trim drops from n the upper half that split copied into right. Inner
// contents share their immutable arrays with the halves, clipped so that
// no append can write through them.
func (n *node) trim(right *node) {
	if !n.leaf {
		c := n.c.Load()
		mid := len(c.keys) / 2
		n.c.Store(&content{keys: c.keys[:mid:mid], children: c.children[: mid+1 : mid+1]})
		return
	}
	cnt := int(n.count.Load())
	mid := cnt / 2
	n.count.Store(int32(mid))
	for i := mid; i < cnt; i++ {
		n.slots[i].Store(nil)
	}
	n.next.Store(right)
}

// kv is one leaf entry as Scan hands it to its callback.
type kv struct {
	key []byte
	val uint64
}

// Scan invokes fn for every (key, value) with lo <= key < hi (hi nil means
// unbounded) in ascending order, until fn returns false. The scan copies a
// consistent snapshot of each leaf (validated optimistic read, shared-latch
// fallback) and calls fn outside any latch; it is not a multi-leaf atomic
// snapshot — MVCC above this layer provides transaction-consistent reads.
func (t *Tree) Scan(lo, hi []byte, fn func(key []byte, val uint64) bool) {
	var buf [Degree]kv
	n := t.sharedLeaf(lo)
	n.lt.UnlockShared()
	for n != nil {
		cnt, next := t.readLeaf(n, &buf)
		for _, e := range buf[:cnt] {
			if lo != nil && bytes.Compare(e.key, lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(e.key, hi) >= 0 {
				return
			}
			if !fn(e.key, e.val) {
				return
			}
		}
		n = next
	}
}

// readLeaf copies a validated snapshot of leaf n's entries into buf and
// returns their number and the next leaf.
func (t *Tree) readLeaf(n *node, buf *[Degree]kv) (int, *node) {
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		if v, got := n.lt.OptimisticRead(256); got {
			if cnt, next, ok := n.copyTo(buf); ok && n.lt.Validate(v) {
				return cnt, next
			}
		}
		t.Stats.OptimisticRestarts.Add(1)
	}
	t.Stats.SharedFallbacks.Add(1)
	n.lt.LockShared(nil)
	defer n.lt.UnlockShared()
	cnt, next, _ := n.copyTo(buf)
	return cnt, next
}

// copyTo copies leaf n's entries into buf; ok is false on a torn read.
func (n *node) copyTo(buf *[Degree]kv) (cnt int, next *node, ok bool) {
	cnt = int(n.count.Load())
	for i := range buf[:cnt] {
		e := n.slots[i].Load()
		if e == nil {
			return 0, nil, false
		}
		buf[i] = kv{e.key, e.val.Load()}
	}
	return cnt, n.next.Load(), true
}

// Len counts the keys in the tree (O(n); intended for tests and stats).
func (t *Tree) Len() int {
	count := 0
	t.Scan(nil, nil, func([]byte, uint64) bool { count++; return true })
	return count
}
