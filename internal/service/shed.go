package service

import (
	"context"
	"fmt"
	"time"

	"routelab/internal/parallel"
)

// Load shedding: when a gate's queue is deeper than its configured
// budget, a request is better refused now — a fast, typed 429 the
// client can retry — than queued behind work it will time out waiting
// for. Two gates shed independently:
//
//   - the per-tenant admission gate (Config.MaxQueuedRequests): a
//     tenant whose compute line is full sheds new computations;
//   - the store's build gate (StoreConfig.MaxQueuedBuilds): a fleet
//     whose cold-scenario build queue is full sheds new builds.
//
// Sheds are deliberately counted at the RESPONSE-WRITE site
// (reply.failErr), not where the OverloadError is raised: the lru
// behind both the response cache and the store's tenants coalesces
// waiters onto one in-flight computation, so a single raised error can
// fan out into many client 429s. Counting per written 429 keeps
// service.shed.{requests,builds} exactly equal to what clients observe
// — the reconciliation the saturation suite asserts.

// OverloadError reports a shed: the named gate's queue was at or past
// its budget when the request arrived. It carries the Retry-After hint
// (whole seconds) the 429 response advertises.
type OverloadError struct {
	What       string // "request" or "build" — which gate shed
	Queue      int    // observed queue depth at shed time
	Limit      int    // the configured budget it met or exceeded
	RetryAfter int    // whole seconds; clamped to [1, maxRetryAfter]
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("overloaded: %s queue depth %d at budget %d", e.What, e.Queue, e.Limit)
}

// admit enters gate, or sheds the caller when limit > 0 callers already
// wait in its queue: a line at budget means the work would sit behind
// work it may not outlive. retryAfter prices the 429 from that depth.
// On nil the caller holds a slot and must Leave it.
func admit(ctx context.Context, gate *parallel.Gate, what string, limit int, retryAfter func(queue int) int) error {
	if limit > 0 {
		if q := gate.Waiting(); q >= limit {
			return &OverloadError{What: what, Queue: q, Limit: limit, RetryAfter: retryAfter(q)}
		}
	}
	return gate.Enter(ctx)
}

// Retry-After bounds. maxRetryAfter keeps a pathological estimate from
// telling clients to go away for an hour.
const (
	minRetryAfter = 1
	maxRetryAfter = 600
)

// requestRetryAfter is a shed request's wait: it can retry almost
// immediately, since the admission gate turns over per request.
func requestRetryAfter(int) int { return 1 }

// buildRetryAfter estimates how long a shed build client should wait,
// on the order of a build: the mean time of this store's builds (its
// record's stage timer — no wall clock is read here, only recorded
// aggregates) times the line length ahead of it, rounded up to whole
// seconds and clamped. Before the store has finished a build the mean
// is unknown; 5s is a conservative small-scenario default.
func (st *Store) buildRetryAfter(queue int) int {
	mean := st.rec.Timer("service/scenario-build").Mean()
	if mean <= 0 {
		return 5
	}
	est := mean * time.Duration(queue+1)
	sec := int((est + time.Second - 1) / time.Second)
	if sec < minRetryAfter {
		sec = minRetryAfter
	}
	if sec > maxRetryAfter {
		sec = maxRetryAfter
	}
	return sec
}
