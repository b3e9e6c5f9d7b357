package mpx

import "fmt"

// Transport carries messages between shard worlds. Send must copy or
// serialise data before returning (the caller reuses the slice) and
// must preserve per-(src, dst) order — mailbox matching is FIFO per
// (source, tag), so an order-preserving transport delivers exactly
// what a local send would. Abort propagates a
// failure to peer shards so their blocked ranks wake instead of
// deadlocking; it is best-effort (an unreachable peer is already
// failing). Close releases the transport's resources.
type Transport interface {
	Send(src, dst, tag int, data []float64) error
	Abort(cause string)
	Close() error
}

// Sink receives messages arriving from a Transport's receive path.
// *World implements it.
type Sink interface {
	Deliver(src, dst, tag int, data []float64)
	AbortFromWire(cause string)
}

// TransportError is the panic value a rank raises when its send could
// not be carried: the computation is fine, the wire is not. Callers
// that recover a RunPanicError whose panics are TransportOnly can
// fall back to a local data path and fold the failure into their
// health machinery.
type TransportError struct {
	Src, Dst, Tag int
	Err           error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("mpx: transport send %d -> %d (tag %d): %v", e.Src, e.Dst, e.Tag, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// AbortError is the panic value a blocked rank raises when its world
// aborts underneath it — another rank panicked, locally or on a peer
// shard. It is a secondary failure: Primary() on the aggregated
// RunPanicError identifies the cause.
type AbortError struct {
	Cause string
}

func (e *AbortError) Error() string { return "mpx: world aborted: " + e.Cause }
