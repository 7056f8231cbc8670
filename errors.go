package oblivmc

import (
	"context"
	"errors"
	"fmt"
)

// Query-lifecycle errors. Every aborted execution surfaces as exactly one
// of these (matchable with errors.Is), so servers can map outcomes to
// typed responses without string inspection.
var (
	// ErrCanceled is returned when a Session run is canceled through the
	// context of RunQueryCtx / RunGraphCtx. The error message carries only
	// public shape: the checkpoint site (a pass index / layer name) and the
	// executed sort-pass count, never data.
	ErrCanceled = errors.New("oblivmc: execution canceled")
	// ErrDeadline is returned when a context deadline caused the
	// cancellation (Session.RunQueryCtx / RunGraphCtx with a deadline
	// context).
	ErrDeadline = errors.New("oblivmc: execution deadline exceeded")
	// ErrInternal is returned when an execution panicked. The concrete
	// error is a *PanicError wrapping this sentinel; the session that ran
	// it is poisoned (its arena and sorter state are suspect) and refuses
	// further queries — rebuild it.
	ErrInternal = errors.New("oblivmc: internal execution fault")
)

// PanicError is the typed form of a panic recovered at the execution
// boundary: the original panic value plus the panicking goroutine's stack.
// It wraps ErrInternal.
type PanicError struct {
	Val   any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%v: panic: %v", ErrInternal, e.Val)
}

// Unwrap makes errors.Is(err, ErrInternal) match.
func (e *PanicError) Unwrap() error { return ErrInternal }

// ctxErrOf refines a canceled run's error against the context that drove
// it: a deadline-caused abort becomes ErrDeadline (still carrying the
// public site detail), everything else passes through.
func ctxErrOf(ctx context.Context, err error) error {
	if err == nil || ctx == nil || !errors.Is(err, ErrCanceled) {
		return err
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w: %v", ErrDeadline, err)
	}
	return err
}
