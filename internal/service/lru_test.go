package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"routelab/internal/obs"
)

// parkSignal is a context that closes parked on its first Done call.
// lru.do calls Done only as a waiter parks on another caller's flight,
// and nothing on a request's path calls it before that (the admission
// gate consults Err first and Done only to queue, which a waiter never
// does), so <-parked is the moment a waiter has joined the flight: the
// fault suite synchronizes on it instead of sleeping.
type parkSignal struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func parkCtx(ctx context.Context) *parkSignal {
	return &parkSignal{Context: ctx, parked: make(chan struct{})}
}

func (p *parkSignal) Done() <-chan struct{} {
	p.once.Do(func() { close(p.parked) })
	return p.Context.Done()
}

// TestLRUDifferential replays a random history of fills, touches and
// purges against the lru and against a model of its policy: a
// most-recent-first list that, after each admit, drops from the cold
// end while the summed cost exceeds the budget and more than one entry
// is resident. Values are their own cost, so one key set exercises the
// entry-count cache (all costs 1) and the byte-costed store alike: after
// every step the hit flag, resident set, order, total cost and the
// evicted hook's calls and the two gauges must equal the model's.
func TestLRUDifferential(t *testing.T) {
	for _, tc := range []struct {
		name     string
		budget   int64
		maxCost  int
		purgeMod int
	}{
		{"unit costs", 3, 1, 4},
		{"byte costs", 10, 6, 5},
		{"over-budget values", 4, 9, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var evicted []int
			c := newLRU(tc.budget, func(v int64) int64 { return v }, obs.Default().Gauge("test.lru.count"), obs.Default().Gauge("test.lru.cost"),
				func(k int, _ int64) { evicted = append(evicted, k) })
			gauges := func() (int, int64) {
				g := obs.Snap().Gauges
				return int(g["test.lru.count"]), int64(g["test.lru.cost"])
			}
			var model []int          // resident keys, most recent first
			costs := map[int]int64{} // key -> the cost it was admitted with
			modelTotal := func() (n int64) {
				for _, k := range model {
					n += costs[k]
				}
				return n
			}
			evictions := 0
			for step := 0; step < 400; step++ {
				k := rng.Intn(8)
				if rng.Intn(tc.purgeMod) == 0 {
					c.purge(func(key int) bool { return key == k })
					if i := slices.Index(model, k); i >= 0 {
						model = slices.Delete(model, i, i+1)
					}
					if n, total := gauges(); n != len(model) || total != modelTotal() {
						t.Fatalf("step %d: gauges (%d, %d) after a purge, model (%d, %d)", step, n, total, len(model), modelTotal())
					}
					continue
				}
				cost := int64(1 + rng.Intn(tc.maxCost))
				wantHit := slices.Contains(model, k)
				got, hit, err := c.do(context.Background(), k, func() (int64, error) { return cost, nil })
				if err != nil {
					t.Fatal(err)
				}
				if hit != wantHit {
					t.Fatalf("step %d key %d: hit %v, model says %v", step, k, hit, wantHit)
				}
				if i := slices.Index(model, k); i >= 0 {
					model = slices.Delete(model, i, i+1)
				} else {
					costs[k] = cost
				}
				if got != costs[k] {
					t.Fatalf("step %d key %d: value %d, want %d", step, k, got, costs[k])
				}
				model = slices.Insert(model, 0, k)
				var want []int
				for !wantHit && modelTotal() > tc.budget && len(model) > 1 {
					want = append(want, model[len(model)-1])
					model = model[:len(model)-1]
				}
				if !slices.Equal(evicted, want) {
					t.Fatalf("step %d: evicted %v, model evicted %v", step, evicted, want)
				}
				evictions += len(evicted)
				evicted = nil

				var order []int
				for el := c.order.Front(); el != nil; el = el.Next() {
					order = append(order, el.Value.(*lruEntry[int, int64]).key)
				}
				if !slices.Equal(order, model) {
					t.Fatalf("step %d: lru order %v, model %v", step, order, model)
				}
				if n, total := c.size(); n != len(model) || total != modelTotal() {
					t.Fatalf("step %d: size (%d, %d), model (%d, %d)", step, n, total, len(model), modelTotal())
				}
				if n, total := gauges(); n != len(model) || total != modelTotal() {
					t.Fatalf("step %d: gauges (%d, %d), model (%d, %d)", step, n, total, len(model), modelTotal())
				}
			}
			if evictions == 0 {
				t.Fatal("history evicted nothing; the differential compared nothing")
			}
		})
	}
}

// TestLRUPeekKeepsRecency: peek (what Info and BuildProgress use) must
// not save an entry from eviction the way a served request does.
func TestLRUPeekKeepsRecency(t *testing.T) {
	c := newLRU[string](2, func(int) int64 { return 1 }, nil, nil, nil)
	fill := func(k string) {
		if _, _, err := c.do(context.Background(), k, func() (int, error) { return len(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	fill("a")
	fill("b")
	if v, ok := c.peek("a"); !ok || v != 1 {
		t.Fatalf("peek(a) = %d, %v", v, ok)
	}
	fill("c") // evicts a, the least recently *served*
	if _, ok := c.peek("a"); ok {
		t.Error("peek refreshed a's recency: it survived c's admit")
	}
	if _, ok := c.peek("b"); !ok {
		t.Error("b was evicted in a's place")
	}
}

// TestLRUCoalescedWaiters parks waiters on one flight and checks what
// each gets when the leader's computation ends: its value, computed
// once; a real error, not retried; or the leader's own cancellation,
// which a waiter with a live context retries past by leading a
// computation of its own.
func TestLRUCoalescedWaiters(t *testing.T) {
	canceled := fmt.Errorf("experiments: table1: %w", context.Canceled)
	boom := errors.New("boom")
	for _, tc := range []struct {
		name      string
		leaderErr error
		wantVal   int
		wantErr   error
		wantCalls int32
	}{
		{"value", nil, 1, nil, 1},
		{"real error", boom, 0, boom, 1},
		{"leader canceled", canceled, 2, nil, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newLRU[string](8, func(int) int64 { return 1 }, nil, nil, nil)
			var calls atomic.Int32
			entered, release := make(chan struct{}), make(chan struct{})
			go c.do(context.Background(), "k", func() (int, error) {
				calls.Add(1)
				close(entered)
				<-release
				if tc.leaderErr != nil {
					return 0, tc.leaderErr
				}
				return 1, nil
			})
			<-entered

			const waiters = 3
			type result struct {
				val int
				hit bool
				err error
			}
			results := make(chan result, waiters)
			var parked []<-chan struct{}
			for i := 0; i < waiters; i++ {
				ctx := parkCtx(context.Background())
				parked = append(parked, ctx.parked)
				go func() {
					val, hit, err := c.do(ctx, "k", func() (int, error) { calls.Add(1); return 2, nil })
					results <- result{val, hit, err}
				}()
			}
			for _, p := range parked {
				<-p
			}
			close(release)
			for i := 0; i < waiters; i++ {
				r := <-results
				// A retrier may find the retried value already resident, so
				// only a joined flight is certainly a miss.
				if r.val != tc.wantVal || !errors.Is(r.err, tc.wantErr) || (r.hit && tc.leaderErr == nil) {
					t.Errorf("waiter: (%d, hit %v, %v), want (%d, %v)", r.val, r.hit, r.err, tc.wantVal, tc.wantErr)
				}
			}
			if n := calls.Load(); n != tc.wantCalls {
				t.Errorf("%d computations ran, want %d", n, tc.wantCalls)
			}
		})
	}
}

// TestLRUWaiterHonorsOwnContext: a parked waiter whose own context dies
// returns at once with that error, and the flight it left completes and
// is kept for the next caller.
func TestLRUWaiterHonorsOwnContext(t *testing.T) {
	c := newLRU[string](8, func(int) int64 { return 1 }, nil, nil, nil)
	entered, release, led := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(led)
		c.do(context.Background(), "k", func() (int, error) { close(entered); <-release; return 1, nil })
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	pc := parkCtx(ctx)
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.do(pc, "k", func() (int, error) { return 2, nil })
		errc <- err
	}()
	<-pc.parked
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("waiter whose context died: %v, want context.Canceled", err)
	}
	close(release)
	<-led
	if v, hit, err := c.do(context.Background(), "k", func() (int, error) { return 3, nil }); v != 1 || !hit || err != nil {
		t.Errorf("after the flight: (%d, hit %v, %v), want the leader's value as a hit", v, hit, err)
	}
}

// TestLRUConcurrentDo hammers a few keys from many goroutines through a
// budget smaller than the key set, so hits, joined flights, fresh
// computations and evictions interleave (run it under -race). Every
// caller must get its key's value, and no key may ever have two
// computations running at once.
func TestLRUConcurrentDo(t *testing.T) {
	const keys, workers, rounds = 4, 8, 200
	c := newLRU[int](2, func(int) int64 { return 1 }, nil, nil, nil)
	var running [keys]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w + i) % keys
				v, _, err := c.do(context.Background(), k, func() (int, error) {
					if running[k].Add(1) != 1 {
						t.Errorf("key %d: two computations at once", k)
					}
					defer running[k].Add(-1)
					return 10 * k, nil
				})
				if err != nil || v != 10*k {
					t.Errorf("key %d: (%d, %v), want (%d, nil)", k, v, err, 10*k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n, total := c.size(); n != 2 || total != 2 {
		t.Errorf("size (%d, %d) after the run, want (2, 2)", n, total)
	}
}
