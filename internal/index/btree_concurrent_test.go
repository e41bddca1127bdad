package index

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rqp/internal/storage"
)

// TestConcurrentWritersAndReaders drives Insert and Delete from one
// goroutine while two others Lookup and Scan, the access pattern of
// sessions sharing an indexed table. Keys below stable are inserted up
// front and never written again, so every Lookup of one must return exactly
// its own entry however the concurrent writes split nodes, and every range
// scan must come back in key order. Run it under -race.
func TestConcurrentWritersAndReaders(t *testing.T) {
	const (
		stable = 500
		writes = 20000
	)
	tr := New(1)
	for k := int64(0); k < stable; k++ {
		tr.Insert(key1(k), storage.RID(k))
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < writes; i++ {
			k := stable + rng.Int63n(5000)
			rid := storage.RID(stable + i)
			tr.Insert(key1(k), rid)
			if i%3 == 0 {
				tr.Delete(key1(k), rid)
			}
		}
	}()
	for r := int64(0); r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				k := rng.Int63n(stable)
				n := 0
				tr.Lookup(nil, key1(k), func(e Entry) bool {
					if e.RID != storage.RID(k) {
						t.Errorf("Lookup(%d) returned rid %d", k, e.RID)
					}
					n++
					return true
				})
				if n != 1 {
					t.Errorf("Lookup(%d) returned %d entries, want 1", k, n)
					return
				}
				prev := int64(-1)
				lo, hi := Bound{Key: key1(k), Incl: true, Set: true}, Bound{Key: key1(k + 600), Set: true}
				tr.Scan(nil, lo, hi, func(e Entry) bool {
					if e.Key[0].I < prev {
						t.Errorf("Scan from %d out of order: %d after %d", k, e.Key[0].I, prev)
					}
					prev = e.Key[0].I
					return true
				})
				_ = tr.Len() + tr.Height()
			}
		}(r)
	}
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if want := stable + writes - (writes+2)/3; tr.Len() != want {
		t.Fatalf("Len = %d, want %d", tr.Len(), want)
	}
}
