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
// Node contents are copy-on-write: a writer clones the node's immutable
// content record, mutates the clone, and publishes it with an atomic store
// before bumping the latch version. Optimistic readers therefore always see
// a fully formed snapshot — the Go-safe equivalent of the C++ original's
// "read racily, validate after" discipline, which Go's memory model does
// not permit on multi-word data.
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

type content struct {
	leaf     bool
	keys     [][]byte
	children []*node  // inner nodes: len(keys)+1
	vals     []uint64 // leaf nodes: len(keys)
	next     *node    // leaf chain for range scans
}

func (c *content) clone() *content {
	nc := &content{leaf: c.leaf, next: c.next}
	nc.keys = append(make([][]byte, 0, len(c.keys)+1), c.keys...)
	if c.leaf {
		nc.vals = append(make([]uint64, 0, len(c.vals)+1), c.vals...)
	} else {
		nc.children = append(make([]*node, 0, len(c.children)+1), c.children...)
	}
	return nc
}

type node struct {
	lt latch.Latch
	c  atomic.Pointer[content]
}

func newNode(c *content) *node {
	n := &node{}
	n.c.Store(c)
	return n
}

// searchKeys returns the index of the first key >= k, and whether it
// equals k.
func searchKeys(keys [][]byte, k []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && bytes.Equal(keys[lo], k)
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
	t.root.Store(newNode(&content{leaf: true}))
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
	n, nv, got := t.optimisticRoot()
	if !got {
		return 0, false, false
	}
	for {
		c := n.c.Load()
		if !n.lt.Validate(nv) {
			return 0, false, false
		}
		if c.leaf {
			i, found := searchKeys(c.keys, key)
			var v uint64
			if found {
				v = c.vals[i]
			}
			if !n.lt.Validate(nv) {
				return 0, false, false
			}
			return v, found, true
		}
		child := c.children[childIndex(c.keys, key)]
		cv, got := child.lt.OptimisticRead(256)
		if !got || !n.lt.Validate(nv) {
			return 0, false, false
		}
		n, nv = child, cv
	}
}

func (t *Tree) lookupShared(key []byte) (uint64, bool) {
	n := t.lockedRoot(false)
	for {
		c := n.c.Load()
		if c.leaf {
			i, found := searchKeys(c.keys, key)
			var v uint64
			if found {
				v = c.vals[i]
			}
			n.lt.UnlockShared()
			return v, found
		}
		child := c.children[childIndex(c.keys, key)]
		child.lt.LockShared(nil)
		n.lt.UnlockShared()
		n = child
	}
}

// lockedLeafOptimistic descends without latches and upgrades the target
// leaf to exclusive. It fails (nil) on validation conflicts or when the
// leaf is full and needsRoom is set — those cases take the pessimistic
// path.
func (t *Tree) lockedLeafOptimistic(key []byte, needsRoom bool) *node {
	n, nv, got := t.optimisticRoot()
	if !got {
		return nil
	}
	for {
		c := n.c.Load()
		if !n.lt.Validate(nv) {
			return nil
		}
		if c.leaf {
			if needsRoom && len(c.keys) >= Degree {
				return nil
			}
			if !n.lt.UpgradeToExclusive(nv) {
				return nil
			}
			return n
		}
		child := c.children[childIndex(c.keys, key)]
		cv, got := child.lt.OptimisticRead(256)
		if !got || !n.lt.Validate(nv) {
			return nil
		}
		n, nv = child, cv
	}
}

// Insert stores val under key, replacing any existing value. It reports
// whether a new key was inserted (false = replaced).
func (t *Tree) Insert(key []byte, val uint64) bool {
	key = append([]byte(nil), key...)
	var n *node
	for attempt := 0; attempt < optimisticRetries && n == nil; attempt++ {
		n = t.lockedLeafOptimistic(key, true)
		if n == nil {
			t.Stats.OptimisticRestarts.Add(1)
		}
	}
	if n == nil {
		t.Stats.ExclusiveFallbacks.Add(1)
		n = t.lockedLeafPessimistic(key)
	}
	defer n.lt.UnlockExclusive()
	return n.put(key, val)
}

// put stores val under key in the exclusively latched leaf n, reporting
// whether the key is new.
func (n *node) put(key []byte, val uint64) bool {
	c := n.c.Load()
	i, found := searchKeys(c.keys, key)
	nc := c.clone()
	if found {
		nc.vals[i] = val
		n.c.Store(nc)
		return false
	}
	nc.keys = append(nc.keys, nil)
	copy(nc.keys[i+1:], nc.keys[i:])
	nc.keys[i] = key
	nc.vals = append(nc.vals, 0)
	copy(nc.vals[i+1:], nc.vals[i:])
	nc.vals[i] = val
	n.c.Store(nc)
	return true
}

// Delete removes key, reporting whether it was present.
func (t *Tree) Delete(key []byte) bool {
	var n *node
	for attempt := 0; attempt < optimisticRetries && n == nil; attempt++ {
		n = t.lockedLeafOptimistic(key, false)
		if n == nil {
			t.Stats.OptimisticRestarts.Add(1)
		}
	}
	if n == nil {
		t.Stats.ExclusiveFallbacks.Add(1)
		n = t.lockedLeafPessimistic(key)
	}
	defer n.lt.UnlockExclusive()
	c := n.c.Load()
	i, found := searchKeys(c.keys, key)
	if !found {
		return false
	}
	nc := c.clone()
	nc.keys = append(nc.keys[:i], nc.keys[i+1:]...)
	nc.vals = append(nc.vals[:i], nc.vals[i+1:]...)
	n.c.Store(nc)
	return true
}

// lockedLeafPessimistic descends with exclusive lock coupling, splitting
// full nodes preemptively, and returns the target leaf exclusively latched.
func (t *Tree) lockedLeafPessimistic(key []byte) *node {
	for {
		n := t.lockedRoot(true)
		if len(n.c.Load().keys) >= Degree {
			// Split the root: build a new root above it, then restart the
			// descent — re-locking the proper child after publishing the
			// new root would race with writers entering through it.
			left := n
			lc, right, sep := splitNode(left.c.Load())
			left.c.Store(lc)
			newRoot := newNode(&content{
				leaf:     false,
				keys:     [][]byte{sep},
				children: []*node{left, right},
			})
			t.root.Store(newRoot)
			left.lt.UnlockExclusive()
			continue
		}
		for {
			c := n.c.Load()
			if c.leaf {
				return n
			}
			ci := childIndex(c.keys, key)
			child := c.children[ci]
			child.lt.LockExclusive(nil)
			if len(child.c.Load().keys) >= Degree {
				// Preemptive split under the exclusively held parent.
				cc, right, sep := splitNode(child.c.Load())
				child.c.Store(cc)
				nc := c.clone()
				nc.keys = append(nc.keys, nil)
				copy(nc.keys[ci+1:], nc.keys[ci:])
				nc.keys[ci] = sep
				nc.children = append(nc.children, nil)
				copy(nc.children[ci+2:], nc.children[ci+1:])
				nc.children[ci+1] = right
				n.c.Store(nc)
				if bytes.Compare(key, sep) >= 0 {
					child.lt.UnlockExclusive()
					child = right
					child.lt.LockExclusive(nil)
				}
			}
			n.lt.UnlockExclusive()
			n = child
		}
	}
}

// splitNode divides c into a trimmed left content, a new right node, and
// the separator key routed to the parent. The right node needs no latch:
// it is unreachable until the parent (held exclusively) publishes it.
func splitNode(c *content) (left *content, right *node, sep []byte) {
	mid := len(c.keys) / 2
	rc := &content{leaf: c.leaf}
	lc := &content{leaf: c.leaf}
	if c.leaf {
		sep = c.keys[mid]
		lc.keys = append([][]byte(nil), c.keys[:mid]...)
		lc.vals = append([]uint64(nil), c.vals[:mid]...)
		rc.keys = append([][]byte(nil), c.keys[mid:]...)
		rc.vals = append([]uint64(nil), c.vals[mid:]...)
		right = newNode(rc)
		rc.next = c.next
		lc.next = right
	} else {
		sep = c.keys[mid]
		lc.keys = append([][]byte(nil), c.keys[:mid]...)
		lc.children = append([]*node(nil), c.children[:mid+1]...)
		rc.keys = append([][]byte(nil), c.keys[mid+1:]...)
		rc.children = append([]*node(nil), c.children[mid+1:]...)
		right = newNode(rc)
	}
	return lc, right, sep
}

// Scan invokes fn for every (key, value) with lo <= key < hi (hi nil means
// unbounded) in ascending order, until fn returns false. The scan takes a
// consistent snapshot of each leaf (validated optimistic read, shared-latch
// fallback) but is not a multi-leaf atomic snapshot; MVCC above this layer
// provides transaction-consistent reads.
func (t *Tree) Scan(lo, hi []byte, fn func(key []byte, val uint64) bool) {
	n := t.leafFor(lo)
	for n != nil {
		c := t.readLeafContent(n)
		for i, k := range c.keys {
			if lo != nil && bytes.Compare(k, lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return
			}
			if !fn(k, c.vals[i]) {
				return
			}
		}
		n = c.next
	}
}

// readLeafContent returns a validated snapshot of a leaf's content.
func (t *Tree) readLeafContent(n *node) *content {
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		v, got := n.lt.OptimisticRead(256)
		if !got {
			continue
		}
		c := n.c.Load()
		if n.lt.Validate(v) {
			return c
		}
		t.Stats.OptimisticRestarts.Add(1)
	}
	t.Stats.SharedFallbacks.Add(1)
	n.lt.LockShared(nil)
	c := n.c.Load()
	n.lt.UnlockShared()
	return c
}

// leafFor returns the leaf that covers key (or the leftmost leaf when key
// is nil), using shared lock coupling for simplicity: scans are the cold
// path compared to point lookups.
func (t *Tree) leafFor(key []byte) *node {
	n := t.lockedRoot(false)
	for {
		c := n.c.Load()
		if c.leaf {
			n.lt.UnlockShared()
			return n
		}
		var child *node
		if key == nil {
			child = c.children[0]
		} else {
			child = c.children[childIndex(c.keys, key)]
		}
		child.lt.LockShared(nil)
		n.lt.UnlockShared()
		n = child
	}
}

// Len counts the keys in the tree (O(n); intended for tests and stats).
func (t *Tree) Len() int {
	count := 0
	t.Scan(nil, nil, func([]byte, uint64) bool { count++; return true })
	return count
}
