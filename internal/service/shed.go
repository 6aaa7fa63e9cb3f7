package service

import (
	"fmt"
	"time"

	"routelab/internal/obs"
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
// (reply.failErr), not where the OverloadError is raised: both the
// response cache and the store coalesce waiters onto one in-flight
// computation, so a single raised error can fan out into many client
// 429s. Counting per written 429 keeps service.shed.{requests,builds}
// exactly equal to what clients observe — the reconciliation the
// saturation suite asserts.

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

// Retry-After bounds. A shed request can retry almost immediately (the
// admission gate turns over per request); a shed build should wait on
// the order of a build. maxRetryAfter keeps a pathological estimate
// from telling clients to go away for an hour.
const (
	requestRetryAfter = 1
	minRetryAfter     = 1
	maxRetryAfter     = 600
)

// buildRetryAfter estimates how long a shed build client should wait:
// the mean observed scenario build time (from the obs stage timer — no
// wall clock is read here, only recorded aggregates) times the line
// length ahead of it, rounded up to whole seconds and clamped. Before
// any build has completed the mean is unknown; 5s is a conservative
// small-scenario default.
func buildRetryAfter(queue int) int {
	mean := obs.Default().Timer("service/scenario-build").Mean()
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
