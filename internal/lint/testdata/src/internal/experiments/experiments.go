// Package experiments is the ctxflow fixture: drivers and helpers that
// bind a context must consult it; a blanked ctx is the opt-out.
package experiments

import "context"

// Env is the fixture execution environment.
type Env struct{ Seed int64 }

// runGuarded consults its ctx before computing: the sanctioned shape.
func runGuarded(ctx context.Context, env *Env) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return env.Seed, nil
}

// runForwarded forwards its ctx to a callee: forwarding counts as
// consulting.
func runForwarded(ctx context.Context, env *Env) (int64, error) {
	return runGuarded(ctx, env)
}

// runDiscards has no stage boundary of its own: _ opts out.
func runDiscards(_ context.Context, env *Env) (int64, error) {
	return env.Seed, nil
}

func runIgnores(ctx context.Context, env *Env) (int64, error) { //lint:want ctxflow
	return env.Seed, nil
}

func helperIgnores(ctx context.Context, n int) int { //lint:want ctxflow
	return n + 1
}

//lint:allow ctxflow fixture demonstrates suppression
func runSuppressed(ctx context.Context, env *Env) (int64, error) {
	return env.Seed, nil
}
