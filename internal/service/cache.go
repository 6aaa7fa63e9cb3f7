package service

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// cache is an LRU over fully-marshaled response bodies with in-flight
// coalescing: concurrent requests for the same key share one
// computation, so a burst of identical queries costs one experiment
// run and every client gets the very same bytes. One cache serves the
// whole fleet; a tenant reaches it only through its partition, so every
// key carries the tenant it belongs to.
type cache struct {
	mu       sync.Mutex
	cap      int
	order    *list.List                 // front = most recent
	entries  map[cacheKey]*list.Element // value: *entry
	inflight map[cacheKey]*call
}

// cacheKey is a tenant-qualified key. The two parts are separate fields
// rather than a joined string, so no tenant name or request key can
// spell its way into another tenant's entries.
type cacheKey struct{ tenant, key string }

type entry struct {
	key  cacheKey
	body []byte
}

type call struct {
	done chan struct{}
	body []byte
	err  error
}

func newCache(capacity int) *cache {
	if capacity <= 0 {
		capacity = 256
	}
	return &cache{
		cap:      capacity,
		order:    list.New(),
		entries:  make(map[cacheKey]*list.Element),
		inflight: make(map[cacheKey]*call),
	}
}

// partition is one tenant's handle on the shared cache: the only way in
// (do is a method of partition, not of cache), so a Server cannot look
// up or fill an entry without its scenario id attached.
type partition struct {
	c      *cache
	tenant string
}

func (c *cache) partition(tenant string) partition { return partition{c: c, tenant: tenant} }

// do returns the cached body for key, joining an in-flight computation
// or running fn to produce it. The returned hit flag reports whether
// the body was served from the LRU (a computation that ran — or was
// joined in flight — counts as a miss). Only successful results are
// cached. Waiters honor their own ctx; when the computing caller's ctx
// kills the computation, surviving waiters retry rather than inherit
// the stranger's deadline.
func (p partition) do(ctx context.Context, key string, fn func() ([]byte, error)) (body []byte, hit bool, err error) {
	c, k := p.c, cacheKey{tenant: p.tenant, key: key}
	for {
		c.mu.Lock()
		if el, ok := c.entries[k]; ok {
			c.order.MoveToFront(el)
			body := el.Value.(*entry).body
			c.mu.Unlock()
			return body, true, nil
		}
		if cl, ok := c.inflight[k]; ok {
			c.mu.Unlock()
			select {
			case <-cl.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if cl.err == nil {
				return cl.body, false, nil
			}
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			// The computation died on ITS caller's context (or a real
			// error); our context is still live, so try again — either a
			// fresh inflight exists or we become the computer.
			if !ctxDied(cl.err) {
				return nil, false, cl.err
			}
			continue
		}
		cl := &call{done: make(chan struct{})}
		c.inflight[k] = cl
		c.mu.Unlock()

		cl.body, cl.err = fn()
		c.mu.Lock()
		delete(c.inflight, k)
		if cl.err == nil {
			c.insert(k, cl.body)
		}
		c.mu.Unlock()
		close(cl.done)
		return cl.body, false, cl.err
	}
}

// ctxDied reports whether err is, or wraps, a context cancellation or
// deadline: the failure a waiter with a live context retries past and
// the handler answers 504. Computations wrap it (runAll's "experiments:
// table1: context canceled"), so == on the sentinels is not enough.
func ctxDied(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// insert adds key under the LRU policy. Caller holds c.mu.
func (c *cache) insert(key cacheKey, body []byte) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*entry).body = body
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, body: body})
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*entry).key)
	}
}

// len reports the number of cached bodies, every tenant's together
// (the service.cache.entries gauge).
func (p partition) len() int {
	p.c.mu.Lock()
	defer p.c.mu.Unlock()
	return p.c.order.Len()
}

// purge drops every cached body of one tenant — what the scenario store
// runs when it evicts a sealed scenario, so an evicted tenant's memory
// is actually released and a rebuild serves freshly-computed
// (byte-identical) bodies. In-flight computations are left alone; they
// complete and re-insert, which is harmless because responses are
// deterministic per key.
func (c *cache) purge(tenant string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry); e.key.tenant == tenant {
			c.order.Remove(el)
			delete(c.entries, e.key)
		}
		el = next
	}
}
