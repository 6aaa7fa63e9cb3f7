// Package obs is a fixture stub of the real metrics registry: the
// hotatomic analyzer recognizes any call into this package path as
// instrumentation.
package obs

import "time"

// Counter is a monotonic metric.
type Counter struct{ v int64 }

// Inc bumps the counter by one.
func (c *Counter) Inc() { c.v++ }

// Add bumps the counter by n.
func (c *Counter) Add(n int64) { c.v += n }

// Registry holds named metrics.
type Registry struct{}

var def Registry

// Default returns the process-wide registry.
func Default() *Registry { return &def }

// Counter returns the named counter.
func (r *Registry) Counter(name string) *Counter { return &Counter{} }

// Since is a wall-clock read walltime leaves alone: obs measures time
// by design.
func Since(t0 time.Time) time.Duration { return time.Since(t0) }
