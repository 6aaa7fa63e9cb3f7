package service

import (
	"sync"
	"testing"
)

// TestForkPoolDrainJoinsRefills hammers every pool's get() from many
// goroutines while drain runs concurrently, then again after: under
// -race this exercises the spawn/drain interplay (wg.Add under the pool
// mutex vs drain's Wait), and it checks the post-drain contract — get()
// keeps working by forking inline, drain is idempotent, and no refill
// goroutine outlives the join.
func TestForkPoolDrainJoinsRefills(t *testing.T) {
	srv := newTenant(DefaultID, testScenario(t), Config{ForkPool: 2}, newCache(0))
	if len(srv.pools) == 0 {
		t.Fatal("test scenario has no testbed prefixes / fork pools")
	}

	var wg sync.WaitGroup
	for _, p := range srv.pools {
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(p *forkPool) {
				defer wg.Done()
				for j := 0; j < 4; j++ {
					if c := p.get(); c == nil {
						t.Error("get returned nil fork")
					}
				}
			}(p)
		}
	}
	srv.Close() // races the getters above by design
	wg.Wait()

	// After the drain every pool must still serve (inline fork path) and
	// must not restock: a second Close has nothing left to join.
	for _, p := range srv.pools {
		if c := p.get(); c == nil {
			t.Error("get returned nil fork after drain")
		}
		p.mu.Lock()
		stopped := p.stopped
		p.mu.Unlock()
		if !stopped {
			t.Error("pool not marked stopped after Close")
		}
	}
	srv.Close()
}
