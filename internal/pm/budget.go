package pm

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Budget bounds the resources one pipeline run may consume. The zero value
// imposes no limits beyond the pipeline's default fixpoint bound. Budgets
// make the optimizer total: a diverging rewrite combination stops with
// Saturated and a code-size explosion from partial evaluation/inlining
// stops with ErrNodeBudget, with valid IR and a structured error instead
// of a hung or OOM-killed compile. Wall clock is bounded by the run
// context (Context.Ctx), which stops the pipeline with ErrDeadline.
type Budget struct {
	// MaxFixpointIters overrides the pipeline's fix(...) iteration bound
	// (0 keeps the pipeline default). A group that hits the bound stops and
	// flags Saturated in the report instead of diverging.
	MaxFixpointIters int
	// MaxNodes bounds the world's node allocation count (its Generation).
	// Checked between passes; 0 means unlimited.
	MaxNodes int
}

// ErrNodeBudget is returned (wrapped) when the world outgrows Budget.MaxNodes.
var ErrNodeBudget = errors.New("pm: node budget exceeded")

// ErrDeadline is returned (wrapped) when the run's Context.Ctx reaches its
// deadline.
var ErrDeadline = errors.New("pm: compilation deadline exceeded")

// ErrCanceled is returned (wrapped) when the run's Context.Ctx is canceled
// mid-pipeline — e.g. a compile-server client disconnected and the request
// context was torn down. The pipeline stops cooperatively at the next check
// seam (between passes, between fixpoint iterations, between parallel
// analysis targets) so an abandoned compile frees its workers instead of
// running to completion into the void.
var ErrCanceled = errors.New("pm: compilation canceled")

// check validates the world against the budget between passes. label names
// the pipeline position being charged ("start", or the pass that just ran).
// It is also the cancellation seam: a canceled or expired Context.Ctx stops
// the pipeline here with ErrCanceled/ErrDeadline.
func (b Budget) check(ctx *Context, label string) error {
	if err := ctx.interrupted(label); err != nil {
		return err
	}
	if b.MaxNodes > 0 && ctx.World.Generation() > b.MaxNodes {
		return fmt.Errorf("%w at %s: %d nodes over limit %d",
			ErrNodeBudget, label, ctx.World.Generation(), b.MaxNodes)
	}
	return nil
}

// interrupted maps the run context's state to the budget error vocabulary:
// a context that timed out reads as a deadline overrun, an explicit cancel
// (client disconnect, server drain) as ErrCanceled. A nil Ctx never
// interrupts.
func (c *Context) interrupted(label string) error {
	if c.Ctx == nil {
		return nil
	}
	switch err := c.Ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w at %s", ErrDeadline, label)
	default:
		return fmt.Errorf("%w at %s", ErrCanceled, label)
	}
}

// ParseBudget parses the -budget flag syntax: comma-separated key=value
// pairs among iters=N (fixpoint iterations) and nodes=N (IR node
// allocations). The empty string is the zero Budget.
func ParseBudget(s string) (Budget, error) {
	var b Budget
	if strings.TrimSpace(s) == "" {
		return b, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Budget{}, fmt.Errorf("pm: bad budget element %q (want key=value)", part)
		}
		switch key {
		case "iters":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return Budget{}, fmt.Errorf("pm: bad budget iters %q", val)
			}
			b.MaxFixpointIters = n
		case "nodes":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return Budget{}, fmt.Errorf("pm: bad budget nodes %q", val)
			}
			b.MaxNodes = n
		default:
			return Budget{}, fmt.Errorf("pm: unknown budget key %q (want iters or nodes)", key)
		}
	}
	return b, nil
}
