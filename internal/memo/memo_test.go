package memo

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

var errBuild = errors.New("build failed")

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	ps, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ps.Close() })
	return ps
}

// intCodec persists int values under "int|<key>".
var intCodec = Codec[string, int]{
	Key:    func(k string) string { return "int|" + k },
	Encode: func(v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil },
	Decode: func(b []byte) (int, error) { return strconv.Atoi(string(b)) },
}

// constant returns a build that counts its runs and yields v.
func constant(v int, runs *atomic.Int64) func() (int, error) {
	return func() (int, error) {
		runs.Add(1)
		return v, nil
	}
}

// TestExactlyOnceConcurrent: many goroutines racing on a few keys run each
// build once and all receive the built value. Run under -race.
func TestExactlyOnceConcurrent(t *testing.T) {
	c := New[int, int]()
	const keys, goroutines = 5, 32
	var runs [keys]atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < keys; i++ {
				k := (g + i) % keys
				v, _, err := c.Get(k, func() (int, error) {
					runs[k].Add(1)
					time.Sleep(time.Millisecond) // hold the key in flight
					return k * 10, nil
				})
				if err != nil || v != k*10 {
					t.Errorf("Get(%d) = %d, %v", k, v, err)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for k := range runs {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want 1", k, n)
		}
	}
	st := c.Stats()
	if st.Builds != keys || st.Hits != keys*goroutines-keys || st.Entries != keys {
		t.Errorf("stats %+v, want %d builds / %d hits / %d entries", st, keys, keys*goroutines-keys, keys)
	}
}

// TestLRUVictimOrder: the least recently used completed entry is evicted,
// and a hit refreshes an entry's position.
func TestLRUVictimOrder(t *testing.T) {
	c := New[string, int]()
	c.SetMax(3)
	var evicted []string
	c.OnEvict(func(k string, _ int) { evicted = append(evicted, k) })
	var runs atomic.Int64
	for _, k := range []string{"a", "b", "c"} {
		c.Get(k, constant(1, &runs))
	}
	if _, src, _ := c.Get("a", constant(1, &runs)); src != Hit {
		t.Fatalf("resident key answered with source %v, want Hit", src)
	}
	c.Get("d", constant(1, &runs)) // b is now least recently used
	c.Get("e", constant(1, &runs)) // then c
	if fmt.Sprint(evicted) != "[b c]" {
		t.Errorf("victims %v, want [b c]", evicted)
	}
	for k, want := range map[string]bool{"a": true, "b": false, "c": false, "d": true, "e": true} {
		if _, ok := c.Peek(k); ok != want {
			t.Errorf("Peek(%q) resident = %t, want %t", k, ok, want)
		}
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 3 || runs.Load() != 5 {
		t.Errorf("stats %+v after %d builds", st, runs.Load())
	}
}

// TestInFlightNeverEvicted: while a build is running, completed entries are
// evicted around it but the in-flight entry stays, and its waiters share the
// one build.
func TestInFlightNeverEvicted(t *testing.T) {
	c := New[string, int]()
	c.SetMax(1)
	var evicted []string
	var mu sync.Mutex
	c.OnEvict(func(k string, _ int) {
		mu.Lock()
		evicted = append(evicted, k)
		mu.Unlock()
	})

	started, release := make(chan struct{}), make(chan struct{})
	var slowRuns atomic.Int64
	slow := func() (int, error) {
		if slowRuns.Add(1) == 1 {
			close(started)
		}
		<-release
		return 7, nil
	}
	results := make(chan int, 2)
	go func() { v, _, _ := c.Get("slow", slow); results <- v }()
	<-started
	go func() { v, _, _ := c.Get("slow", slow); results <- v }()

	var runs atomic.Int64
	for _, k := range []string{"x", "y"} {
		if v, _, _ := c.Get(k, constant(1, &runs)); v != 1 {
			t.Fatalf("Get(%q) = %d", k, v)
		}
	}
	if n := c.Len(); n != 1 {
		t.Errorf("Len = %d with only the in-flight entry resident, want 1", n)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if v := <-results; v != 7 {
			t.Errorf("waiter got %d, want 7", v)
		}
	}
	if _, ok := c.Peek("slow"); !ok {
		t.Error("the in-flight entry was evicted")
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(evicted) != "[x y]" || slowRuns.Load() != 1 {
		t.Errorf("victims %v, slow built %d times; want [x y] and 1", evicted, slowRuns.Load())
	}
}

// TestOnEvictOncePerVictim: every eviction runs OnEvict exactly once with
// the evicted value, sequentially and under concurrent churn.
func TestOnEvictOncePerVictim(t *testing.T) {
	c := New[int, int]()
	c.SetMax(2)
	calls := make(map[int]int)
	c.OnEvict(func(k, v int) {
		if v != k+100 {
			t.Errorf("OnEvict(%d) got value %d", k, v)
		}
		calls[k]++
	})
	for k := 0; k < 10; k++ {
		c.Get(k, func() (int, error) { return k + 100, nil })
	}
	for k := 0; k < 8; k++ {
		if calls[k] != 1 {
			t.Errorf("key %d evicted %d times, want 1", k, calls[k])
		}
	}
	if len(calls) != 8 {
		t.Errorf("OnEvict saw %d keys, want 8", len(calls))
	}

	cc := New[int, int]()
	cc.SetMax(2)
	var n atomic.Int64
	cc.OnEvict(func(int, int) { n.Add(1) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g*7 + i) % 6
				cc.Get(k, func() (int, error) { return k, nil })
			}
		}(g)
	}
	wg.Wait()
	st := cc.Stats()
	if n.Load() != st.Evictions || st.Evictions == 0 || st.Entries > 2 {
		t.Errorf("%d OnEvict calls for stats %+v", n.Load(), st)
	}
}

// TestErrorsMemoizedNotPersisted: a failed build reaches the caller, is
// shared by later callers of the resident key, and writes nothing to the
// persistent tier, so a fresh cache on the same store builds again.
func TestErrorsMemoizedNotPersisted(t *testing.T) {
	ps := openStore(t, t.TempDir())
	c := New[string, int]()
	c.Persist(ps, intCodec)
	var runs atomic.Int64
	fail := func() (int, error) { runs.Add(1); return 0, errBuild }
	if _, src, err := c.Get("k", fail); !errors.Is(err, errBuild) || src != Built {
		t.Fatalf("failed build: source %v, error %v", src, err)
	}
	if _, src, err := c.Get("k", fail); !errors.Is(err, errBuild) || src != Hit {
		t.Fatalf("resident failure: source %v, error %v", src, err)
	}
	if n := ps.Len(); n != 0 {
		t.Fatalf("failed build persisted %d records", n)
	}
	fresh := New[string, int]()
	fresh.Persist(ps, intCodec)
	if v, src, err := fresh.Get("k", constant(5, &runs)); err != nil || src != Built || v != 5 {
		t.Fatalf("retry on a fresh cache: %d, %v, %v", v, src, err)
	}
	if st := c.Stats(); st.Builds != 1 || st.Hits != 1 || runs.Load() != 2 {
		t.Errorf("stats %+v after %d builds", st, runs.Load())
	}
}

// TestPersistentTier: a build is written through, a sibling cache on the
// same store is answered from it without building, and an evicted entry
// comes back from the store.
func TestPersistentTier(t *testing.T) {
	ps := openStore(t, t.TempDir())
	var runs atomic.Int64
	a := New[string, int]()
	a.Persist(ps, intCodec)
	a.SetMax(1)
	if v, src, _ := a.Get("k", constant(42, &runs)); v != 42 || src != Built {
		t.Fatalf("cold Get = %d, %v", v, src)
	}
	if _, ok := ps.Get("int|k"); !ok {
		t.Fatal("built value not written through")
	}
	b := New[string, int]()
	b.Persist(ps, intCodec)
	if v, src, _ := b.Get("k", constant(0, &runs)); v != 42 || src != Stored {
		t.Fatalf("sibling Get = %d, %v, want 42 from the store", v, src)
	}
	a.Get("other", constant(1, &runs)) // evicts k
	if v, src, _ := a.Get("k", constant(0, &runs)); v != 42 || src != Stored {
		t.Fatalf("evicted Get = %d, %v, want 42 from the store", v, src)
	}
	if st := a.Stats(); st.Builds != 2 || st.StoreHits != 1 || runs.Load() != 2 {
		t.Errorf("stats %+v after %d builds", st, runs.Load())
	}
}

// TestDecodeFailureFallsBackToBuild: undecodable stored bytes cost one
// build, and the rebuilt value replaces them in the store.
func TestDecodeFailureFallsBackToBuild(t *testing.T) {
	ps := openStore(t, t.TempDir())
	if err := ps.Put("int|k", []byte("not a number")); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	c := New[string, int]()
	c.Persist(ps, intCodec)
	if v, src, err := c.Get("k", constant(9, &runs)); err != nil || src != Built || v != 9 {
		t.Fatalf("Get over undecodable bytes = %d, %v, %v", v, src, err)
	}
	fresh := New[string, int]()
	fresh.Persist(ps, intCodec)
	if v, src, _ := fresh.Get("k", constant(0, &runs)); v != 9 || src != Stored {
		t.Fatalf("rewritten record: %d, %v, want 9 from the store", v, src)
	}
	if runs.Load() != 1 {
		t.Errorf("built %d times, want 1", runs.Load())
	}
}

// TestCachesSharingStoreBuildOnce: caches racing on one key over a shared
// store run the build once between them. Run under -race.
func TestCachesSharingStoreBuildOnce(t *testing.T) {
	ps := openStore(t, t.TempDir())
	var runs atomic.Int64
	const n = 6
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := New[string, int]()
		c.Persist(ps, intCodec)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if v, _, err := c.Get("k", constant(3, &runs)); err != nil || v != 3 {
				t.Errorf("Get = %d, %v", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if runs.Load() != 1 {
		t.Errorf("built %d times across %d caches, want 1", runs.Load(), n)
	}
}

// TestDelete: a deleted key is rebuilt on its next request and OnEvict does
// not run for it.
func TestDelete(t *testing.T) {
	c := New[string, int]()
	c.OnEvict(func(string, int) { t.Error("OnEvict ran for Delete") })
	var runs atomic.Int64
	c.Get("k", constant(1, &runs))
	c.Delete("k")
	if _, ok := c.Peek("k"); ok || c.Len() != 0 {
		t.Fatal("deleted key still resident")
	}
	if _, src, _ := c.Get("k", constant(1, &runs)); src != Built || runs.Load() != 2 {
		t.Errorf("Get after Delete: source %v after %d builds", src, runs.Load())
	}
}
