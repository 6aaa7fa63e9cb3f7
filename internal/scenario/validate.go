package scenario

import (
	"errors"
	"fmt"
)

// A ConfigError reports one invalid Config field, named by its dotted
// field path from the Config root (e.g. "Topology.HybridLinkRate"), so
// tooling that compiles configs from documents — cmd/scengen and the
// -spec flags of both binaries — can surface which field to fix
// rather than a bare value. Validate returns them (possibly several,
// joined with errors.Join); match with errors.As.
type ConfigError struct {
	Field  string // dotted path from Config, e.g. "Topology.Scale"
	Value  any    // the rejected value
	Reason string // why it was rejected
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("scenario: invalid Config.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks every field of Fields against its bound, nested
// Topology, Traceroute and GeoDB fields included. It returns nil for
// every config Build can handle, and a ConfigError (or several, via
// errors.Join) otherwise. Both binaries call it before the expensive
// Build, spec.Compile calls it on every compiled document, and Build
// calls it again as a backstop.
func (c *Config) Validate() error {
	var errs []error
	for i := range Fields {
		f := &Fields[i]
		if reason := f.Bound.Check(f.Get(c)); reason != "" {
			errs = append(errs, &ConfigError{Field: f.GoPath, Value: f.slot(c).Interface(), Reason: reason})
		}
	}
	return errors.Join(errs...)
}
