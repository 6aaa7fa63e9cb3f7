package service

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"routelab/internal/obs"
)

// lru is the service's one cache mechanism: a least-recently-used map
// with in-flight coalescing. It holds both things the service keeps: the
// fleet-wide response cache (marshaled bodies, one cost unit each,
// bounded by -cache) and the store's resident tenants (sealed scenarios,
// costed by their accounted bytes, bounded by -max-scenario-bytes).
//
// Concurrent do calls for a key that is neither resident nor in flight
// share one computation, so a burst of identical requests costs one
// experiment run or one scenario build, and every caller gets the very
// same value. Only successes are kept. Eviction takes the cold end while
// the summed cost exceeds the budget, but never the entry just inserted:
// one over-budget value is kept and served rather than recomputed on
// every request.
type lru[K comparable, V any] struct {
	budget int64
	cost   func(V) int64
	// countGauge and costGauge, when not nil, follow the resident count
	// and summed cost. They are set under mu where the resident set
	// changes, so a hit touches neither.
	countGauge, costGauge *obs.Gauge
	// evicted, if set, runs for each entry an insert evicts, after mu is
	// released.
	evicted func(K, V)

	mu       sync.Mutex
	order    *list.List // of *lruEntry[K, V], front = most recently used
	entries  map[K]*list.Element
	inflight map[K]*flight[V]
	total    int64 // summed cost of entries
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// flight is one in-progress computation; done closes once val and err
// are final.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newLRU[K comparable, V any](budget int64, cost func(V) int64, countGauge, costGauge *obs.Gauge, evicted func(K, V)) *lru[K, V] {
	return &lru[K, V]{
		budget:     budget,
		cost:       cost,
		countGauge: countGauge,
		costGauge:  costGauge,
		evicted:    evicted,
		order:      list.New(),
		entries:    make(map[K]*list.Element),
		inflight:   make(map[K]*flight[V]),
	}
}

// do returns the value for key, joining an in-flight computation or
// running fn to produce it. hit reports that the value was resident (a
// computation that ran, or was joined in flight, is a miss). fn must not
// panic: callers recover inside it (recoverAs), so a panic becomes the
// call's error and the flight is retired. Waiters honor their own ctx;
// when the computation died on its leader's context, a waiter whose ctx
// is live retries rather than inherit the stranger's deadline.
func (c *lru[K, V]) do(ctx context.Context, key K, fn func() (V, error)) (val V, hit bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			val := el.Value.(*lruEntry[K, V]).val
			c.mu.Unlock()
			return val, true, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return val, false, ctx.Err()
			}
			if f.err == nil {
				return f.val, false, nil
			}
			if ctx.Err() != nil {
				return val, false, ctx.Err()
			}
			// The computation died on ITS caller's context (or a real
			// error); ours is still live, so try again: either a fresh
			// flight exists or we lead one.
			if !ctxDied(f.err) {
				return val, false, f.err
			}
			continue
		}
		f := &flight[V]{done: make(chan struct{})}
		c.inflight[key] = f
		c.mu.Unlock()

		f.val, f.err = fn()
		var e *lruEntry[K, V]
		if f.err == nil {
			e = &lruEntry[K, V]{key: key, val: f.val, cost: c.cost(f.val)}
		}
		var victims []*lruEntry[K, V]
		c.mu.Lock()
		delete(c.inflight, key)
		if e != nil {
			victims = c.insert(e)
		}
		c.mu.Unlock()
		if c.evicted != nil {
			for _, e := range victims {
				c.evicted(e.key, e.val)
			}
		}
		close(f.done)
		return f.val, false, f.err
	}
}

// ctxDied reports whether err is, or wraps, a context cancellation or
// deadline: the failure a waiter with a live context retries past and
// the handler answers 504. Computations wrap it ("experiments: table1:
// context canceled"), so == on the sentinels is not enough.
func ctxDied(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// insert adds e as the most recent entry and evicts from the cold end
// while the total cost exceeds the budget, returning what it evicted.
// e's key is not resident: only its flight's leader inserts it, and do
// found it absent before starting that flight. Caller holds c.mu.
func (c *lru[K, V]) insert(e *lruEntry[K, V]) []*lruEntry[K, V] {
	c.entries[e.key] = c.order.PushFront(e)
	c.total += e.cost
	var victims []*lruEntry[K, V]
	for c.total > c.budget && c.order.Len() > 1 {
		victims = append(victims, c.remove(c.order.Back()))
	}
	c.setGauges()
	return victims
}

// remove drops one entry. Caller holds c.mu.
func (c *lru[K, V]) remove(el *list.Element) *lruEntry[K, V] {
	e := c.order.Remove(el).(*lruEntry[K, V])
	delete(c.entries, e.key)
	c.total -= e.cost
	return e
}

// setGauges publishes the resident set's size. Caller holds c.mu.
func (c *lru[K, V]) setGauges() {
	c.countGauge.Set(float64(c.order.Len()))
	c.costGauge.Set(float64(c.total))
}

// peek returns key's resident value without touching its recency.
func (c *lru[K, V]) peek(key K) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*lruEntry[K, V]).val, true
	}
	return val, false
}

// inFlight reports whether a computation of key is running.
func (c *lru[K, V]) inFlight(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.inflight[key]
	return ok
}

// size reports how many entries are resident and their summed cost.
func (c *lru[K, V]) size() (n int, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.total
}

// purge drops every resident entry whose key matches; match runs under
// c.mu, so it must only inspect the key. A purge is not an eviction: the
// evicted hook does not run. In-flight computations are left alone; they
// complete and insert as usual.
func (c *lru[K, V]) purge(match func(K) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if match(el.Value.(*lruEntry[K, V]).key) {
			c.remove(el)
		}
		el = next
	}
	c.setGauges()
}
