package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestInsertLookup(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		if !tr.Insert(key(i), uint64(i*10)) {
			t.Fatalf("insert %d reported replace", i)
		}
	}
	for i := 0; i < 1000; i++ {
		v, ok := tr.Lookup(key(i))
		if !ok || v != uint64(i*10) {
			t.Fatalf("lookup %d = (%d,%v)", i, v, ok)
		}
	}
	if _, ok := tr.Lookup(key(5000)); ok {
		t.Fatal("lookup of absent key succeeded")
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestInsertReplace(t *testing.T) {
	tr := New()
	tr.Insert(key(1), 10)
	if tr.Insert(key(1), 20) {
		t.Fatal("replace reported new insert")
	}
	v, _ := tr.Lookup(key(1))
	if v != 20 {
		t.Fatalf("value = %d after replace", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// InsertIfAbsent stores only into an absent key or over a value replace
// accepts, and reports the value it found.
func TestInsertIfAbsent(t *testing.T) {
	tr := New()
	if old, stored := tr.InsertIfAbsent(key(1), 10, nil); !stored || old != 0 {
		t.Fatalf("into an absent key = (%d, %v)", old, stored)
	}
	if old, stored := tr.InsertIfAbsent(key(1), 20, nil); stored || old != 10 {
		t.Fatalf("over 10 with no replace = (%d, %v)", old, stored)
	}
	if old, stored := tr.InsertIfAbsent(key(1), 20, func(v uint64) bool { return v == 9 }); stored || old != 10 {
		t.Fatalf("over 10, replacing only 9 = (%d, %v)", old, stored)
	}
	if old, stored := tr.InsertIfAbsent(key(1), 30, func(v uint64) bool { return v == 10 }); !stored || old != 10 {
		t.Fatalf("over 10, replacing 10 = (%d, %v)", old, stored)
	}
	if v, _ := tr.Lookup(key(1)); v != 30 || tr.Len() != 1 {
		t.Fatalf("value %d, %d keys; want 30 and 1", v, tr.Len())
	}
}

// Goroutines racing InsertIfAbsent over the same keys store exactly one
// value per key, and every loser is told the winner's value, across
// leaf splits.
func TestConcurrentInsertIfAbsentOneWinner(t *testing.T) {
	tr := New()
	const goroutines, keys = 8, 3000
	winners := make([][]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				val := uint64(i*goroutines + g)
				old, stored := tr.InsertIfAbsent(key(i), val, nil)
				if stored {
					winners[g] = append(winners[g], i)
				} else if old%goroutines == uint64(g) || old/goroutines != uint64(i) {
					t.Errorf("key %d lost to %d", i, old)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	won := 0
	for g, ws := range winners {
		for _, i := range ws {
			if v, ok := tr.Lookup(key(i)); !ok || v != uint64(i*goroutines+g) {
				t.Fatalf("key %d holds (%d, %v), stored by goroutine %d", i, v, ok, g)
			}
		}
		won += len(ws)
	}
	if won != keys || tr.Len() != keys {
		t.Fatalf("%d stores over %d keys, want one each", won, tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := 0; i < 500; i++ {
		tr.Insert(key(i), uint64(i))
	}
	for i := 0; i < 500; i += 2 {
		if !tr.Delete(key(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Delete(key(0)) {
		t.Fatal("double delete succeeded")
	}
	for i := 0; i < 500; i++ {
		_, ok := tr.Lookup(key(i))
		if (i%2 == 0) == ok {
			t.Fatalf("key %d presence = %v", i, ok)
		}
	}
	if tr.Len() != 250 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestDeleteValue(t *testing.T) {
	tr := New()
	tr.Insert(key(1), 10)
	if tr.DeleteValue(key(1), 9) || tr.Len() != 1 {
		t.Fatal("removed a key holding another value")
	}
	if tr.DeleteValue(key(2), 10) {
		t.Fatal("removed an absent key")
	}
	if !tr.DeleteValue(key(1), 10) || tr.Len() != 0 {
		t.Fatal("kept a key holding the value")
	}
}

func TestRandomOrderInsert(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(5000)
	for _, i := range perm {
		tr.Insert(key(i), uint64(i))
	}
	// Keys must come back in sorted order.
	var prev []byte
	n := 0
	tr.Scan(nil, nil, func(k []byte, v uint64) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatal("scan out of order")
		}
		prev = append(prev[:0], k...)
		n++
		return true
	})
	if n != 5000 {
		t.Fatalf("scan visited %d keys", n)
	}
}

func TestScanRange(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(key(i), uint64(i))
	}
	var got []uint64
	tr.Scan(key(10), key(20), func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("range scan = %v", got)
	}
	// Early termination.
	count := 0
	tr.Scan(nil, nil, func(k []byte, v uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early-stop scan visited %d", count)
	}
	// Empty range.
	count = 0
	tr.Scan(key(50), key(50), func(k []byte, v uint64) bool { count++; return true })
	if count != 0 {
		t.Fatalf("empty range visited %d", count)
	}
}

func TestModelProperty(t *testing.T) {
	// The tree must agree with a map+sort model under random ops.
	f := func(ops []uint16) bool {
		tr := New()
		model := map[string]uint64{}
		for i, op := range ops {
			k := key(int(op % 200))
			switch i % 3 {
			case 0, 1:
				tr.Insert(k, uint64(i))
				model[string(k)] = uint64(i)
			case 2:
				tr.Delete(k)
				delete(model, string(k))
			}
		}
		for k, want := range model {
			v, ok := tr.Lookup([]byte(k))
			if !ok || v != want {
				return false
			}
		}
		var keys []string
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		okScan := true
		tr.Scan(nil, nil, func(k []byte, v uint64) bool {
			if i >= len(keys) || string(k) != keys[i] || v != model[keys[i]] {
				okScan = false
				return false
			}
			i++
			return true
		})
		return okScan && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertDisjoint(t *testing.T) {
	tr := New()
	const goroutines = 8
	const per = 3000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Insert(key(g*per+i), uint64(g*per+i))
			}
		}(g)
	}
	wg.Wait()
	if n := tr.Len(); n != goroutines*per {
		t.Fatalf("Len = %d, want %d", n, goroutines*per)
	}
	for i := 0; i < goroutines*per; i++ {
		if v, ok := tr.Lookup(key(i)); !ok || v != uint64(i) {
			t.Fatalf("lookup %d = (%d,%v)", i, v, ok)
		}
	}
}

func TestConcurrentMixedReadWrite(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		tr.Insert(key(i), uint64(i))
	}
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	// Writers keep inserting/deleting high keys.
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := key(10000 + g*100000 + i%5000)
				if i%2 == 0 {
					tr.Insert(k, uint64(i))
				} else {
					tr.Delete(k)
				}
			}
		}(g)
	}
	// Readers verify the stable low keys are always visible and correct.
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20000; i++ {
				j := i % 1000
				v, ok := tr.Lookup(key(j))
				if !ok || v != uint64(j) {
					t.Errorf("stable key %d = (%d,%v)", j, v, ok)
					return
				}
			}
		}()
	}
	// Scanners walk the stable range.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; i < 200; i++ {
			n := 0
			tr.Scan(key(0), key(1000), func(k []byte, v uint64) bool { n++; return true })
			if n != 1000 {
				t.Errorf("stable scan saw %d keys", n)
				return
			}
		}
	}()
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestInPlaceShiftsNeverHideKeys interleaves writers with readers inside
// the same leaves: the stable keys are the even numbers 0..7998, and two
// writers insert, replace and delete the odd keys between them, so every
// write shifts stable keys' slots. The stable keys go in in random order,
// which leaves their leaves part-full; each writer first sweeps its half of
// the odd keys in, and 8,000 keys do not fit in those leaves, so leaves
// split under the readers. Lookups must always find a stable key with its
// value, and every full scan must see all 4,000 stable keys in order.
func TestInPlaceShiftsNeverHideKeys(t *testing.T) {
	const stable = 4000
	tr := New()
	for _, i := range rand.New(rand.NewSource(1)).Perm(stable) {
		tr.Insert(key(2*i), uint64(2*i))
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20000; i++ {
				k := key(2*rng.Intn(stable) + 1)
				if i < stable/2 {
					k = key(2*(2*i+g) + 1)
				}
				if i < stable/2 || rng.Intn(3) < 2 {
					tr.Insert(k, uint64(i))
				} else {
					tr.Delete(k)
				}
			}
		}(g)
	}
	running := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(10 + g)))
			for running() {
				j := 2 * rng.Intn(stable)
				if v, ok := tr.Lookup(key(j)); !ok || v != uint64(j) {
					t.Errorf("stable key %d = (%d, %v)", j, v, ok)
					return
				}
			}
		}(g)
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for pass := 0; pass == 0 || running(); pass++ {
			next, prev := 0, -1
			tr.Scan(nil, nil, func(k []byte, v uint64) bool {
				i := int(binary.BigEndian.Uint64(k))
				if i <= prev {
					t.Errorf("pass %d: key %d after %d", pass, i, prev)
					return false
				}
				prev = i
				if i%2 == 0 {
					if i != next || v != uint64(i) {
						t.Errorf("pass %d: stable key (%d, %d), want %d", pass, i, v, next)
						return false
					}
					next += 2
				}
				return true
			})
			if next != 2*stable {
				t.Errorf("pass %d saw stable keys up to %d, want %d", pass, next, 2*stable)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	readers.Wait()
	if tr.Stats.ExclusiveFallbacks.Load() == 0 {
		t.Fatal("no insert took the exclusive descent, so no leaf split")
	}
}

// TestPessimisticMode drives the fallback descents directly: exclusive
// lock coupling with preemptive splits builds the whole tree, and shared
// lock coupling reads every key back, agreeing with the optimistic path.
func TestPessimisticMode(t *testing.T) {
	tr := New()
	for i := 0; i < 2000; i++ {
		n := tr.lockedLeafPessimistic(key(i))
		if !n.put(key(i), uint64(i)) {
			t.Fatalf("key %d already present", i)
		}
		n.lt.UnlockExclusive()
	}
	if tr.root.Load().leaf {
		t.Fatal("2000 keys did not split the root")
	}
	for i := 0; i < 2000; i++ {
		if v, ok := tr.lookupShared(key(i)); !ok || v != uint64(i) {
			t.Fatalf("shared lookup %d = (%d, %v)", i, v, ok)
		}
		if v, ok := tr.Lookup(key(i)); !ok || v != uint64(i) {
			t.Fatalf("optimistic lookup %d = (%d, %v)", i, v, ok)
		}
	}
	if _, ok := tr.lookupShared(key(2000)); ok {
		t.Fatal("shared lookup found an absent key")
	}
	n := 0
	tr.Scan(nil, nil, func(k []byte, v uint64) bool {
		if !bytes.Equal(k, key(n)) || v != uint64(n) {
			t.Fatalf("scan position %d = (%q, %d)", n, k, v)
		}
		n++
		return true
	})
	if n != 2000 {
		t.Fatalf("scan saw %d keys", n)
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr := New()
	words := []string{"", "a", "ab", "abc", "b", "ba", "zzz", "\x00", "\xff\xff"}
	for i, w := range words {
		tr.Insert([]byte(w), uint64(i))
	}
	for i, w := range words {
		v, ok := tr.Lookup([]byte(w))
		if !ok || v != uint64(i) {
			t.Fatalf("lookup %q = (%d,%v)", w, v, ok)
		}
	}
	var got []string
	tr.Scan(nil, nil, func(k []byte, v uint64) bool {
		got = append(got, string(k))
		return true
	})
	want := append([]string(nil), words...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan order %q, want %q", got, want)
	}
}

func TestInsertDoesNotAliasCallerKey(t *testing.T) {
	tr := New()
	k := []byte("mutable")
	tr.Insert(k, 1)
	k[0] = 'X'
	if _, ok := tr.Lookup([]byte("mutable")); !ok {
		t.Fatal("tree aliased caller's key buffer")
	}
}

func BenchmarkLookupOptimistic(b *testing.B) {
	tr := New()
	for i := 0; i < 100000; i++ {
		tr.Insert(key(i), uint64(i))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			tr.Lookup(key(i % 100000))
			i++
		}
	})
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(key(i), uint64(i))
	}
}

// BenchmarkInsertRandom inserts in random key order, the shape of a
// secondary index, where leaves split half-full and fill up again.
func BenchmarkInsertRandom(b *testing.B) {
	keys := make([][]byte, b.N)
	for i, j := range rand.New(rand.NewSource(1)).Perm(b.N) {
		keys[i] = key(j)
	}
	tr := New()
	b.ResetTimer()
	for i, k := range keys {
		tr.Insert(k, uint64(i))
	}
}

// TestInsertAllocBytes gates what an insert allocates now that leaves
// change in place: a new key costs its entry and its copied bytes, and
// only splits (a new leaf, a copied parent) add more.
func TestInsertAllocBytes(t *testing.T) {
	const n = 20000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
	}
	perm := rand.New(rand.NewSource(1)).Perm(n)
	tr := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, i := range perm {
		tr.Insert(keys[i], uint64(i))
	}
	runtime.ReadMemStats(&after)
	if perInsert := (after.TotalAlloc - before.TotalAlloc) / n; perInsert > 256 {
		t.Fatalf("%d random-order inserts allocated %d B each, want <= 256", n, perInsert)
	}

	// An insert into a leaf with room: the 51 runs (one warm-up) all land
	// in the root leaf, which holds Degree keys.
	room := New()
	next := 0
	allocs := testing.AllocsPerRun(50, func() {
		room.Insert(keys[next], uint64(next))
		next++
	})
	if allocs > 2 {
		t.Fatalf("an insert into a leaf with room made %.1f allocations, want <= 2", allocs)
	}
}
