package pagecache

// RetryDevice: the recovery half of the device fault model. NAND reads fail
// transiently in practice (and deterministically under internal/faults'
// FaultyDevice); the page cache treats any failed load as fatal for that
// read, so the retry policy lives below it — a failed or torn read is
// re-attempted against the underlying device before the cache ever sees it.

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// transientError is implemented by errors that are worth retrying: the same
// read re-issued may succeed (injected read faults, NAND soft errors).
// faults.ReadError implements it.
type transientError interface{ Transient() bool }

// IsTransient reports whether err (or anything it wraps) marks itself as a
// transient, retryable device failure.
func IsTransient(err error) bool {
	var t transientError
	return errors.As(err, &t) && t.Transient()
}

// DefaultReadAttempts bounds RetryDevice's attempts per read. Injected
// transient faults are independent per attempt, so surviving probability
// decays geometrically; persistent failures still surface after the cap
// (the fault model is fail-stop for non-transient device errors).
const DefaultReadAttempts = 16

// ErrExhausted marks a read whose whole retry budget was consumed without a
// clean result. Match with errors.Is(err, ErrExhausted).
var ErrExhausted = errors.New("pagecache: device read retry budget exhausted")

// ExhaustedError is the typed error RetryDevice returns when the attempt
// budget runs out. It deliberately reports Transient() == false even when the
// last underlying failure was transient: the retry layer IS the transient
// handler, so a failure that survives it is permanent as far as every layer
// above is concerned — the cache must fail the load, not silently accept a
// torn read, and recovery escalates to the query-level ladder.
type ExhaustedError struct {
	Off      int64 // read offset
	Attempts int   // attempt budget that was consumed
	Short    bool  // true when the last attempt was a torn (short, error-free) read
	Last     error // last underlying error, nil for a torn read
}

func (e *ExhaustedError) Error() string {
	if e.Last == nil {
		return fmt.Sprintf("pagecache: device read retry budget exhausted (off=%d attempts=%d, torn read)",
			e.Off, e.Attempts)
	}
	return fmt.Sprintf("pagecache: device read retry budget exhausted (off=%d attempts=%d): %v",
		e.Off, e.Attempts, e.Last)
}

// Unwrap exposes the last underlying failure for errors.As inspection.
// errors.As(err, &transientError) still finds the ExhaustedError first
// (outermost wins), so IsTransient correctly reports false.
func (e *ExhaustedError) Unwrap() error { return e.Last }

// Is makes errors.Is(err, ErrExhausted) match.
func (e *ExhaustedError) Is(target error) bool { return target == ErrExhausted }

// Transient reports false: an exhausted retry budget is permanent by
// definition (see type doc).
func (e *ExhaustedError) Transient() bool { return false }

// RetryDevice wraps a BlockDevice, re-issuing reads that fail with a
// transient error or return a torn (short, mid-device) result. Non-transient
// errors propagate immediately.
type RetryDevice struct {
	under    BlockDevice
	attempts int

	retries   atomic.Uint64
	exhausted atomic.Uint64

	// Optional mirror sinks (SetCounters): obs counters without an obs import.
	retrySink   CounterSink
	exhaustSink CounterSink
}

var _ BlockDevice = (*RetryDevice)(nil)

// NewRetryDevice wraps under with up to attempts tries per read
// (<= 0 selects DefaultReadAttempts), re-issued at once: a simulated device
// already charges its service latency per attempt.
func NewRetryDevice(under BlockDevice, attempts int) *RetryDevice {
	if attempts <= 0 {
		attempts = DefaultReadAttempts
	}
	return &RetryDevice{under: under, attempts: attempts}
}

// ReadAt retries transient failures and torn reads, returning the first
// clean result. When the attempt budget runs out it returns a typed
// *ExhaustedError — never a bare short (n < len(p), nil) result mid-device,
// which callers that don't re-check n would silently accept as valid data.
// The exhaustion error reports Transient() == false (this layer is the
// transient handler; what survives it is permanent) while still wrapping the
// last underlying failure for inspection.
func (d *RetryDevice) ReadAt(p []byte, off int64) (int, error) {
	var n int
	var err error
	for a := 0; a < d.attempts; a++ {
		if a > 0 {
			d.retries.Add(1)
			if d.retrySink != nil {
				d.retrySink.Add(1)
			}
		}
		n, err = d.under.ReadAt(p, off)
		if err != nil {
			if IsTransient(err) {
				continue
			}
			return n, err // permanent: fail-stop, no retry
		}
		if n < len(p) && off+int64(n) < d.under.Size() {
			continue // torn read: short mid-device, retry
		}
		return n, nil
	}
	d.exhausted.Add(1)
	if d.exhaustSink != nil {
		d.exhaustSink.Add(1)
	}
	return n, &ExhaustedError{Off: off, Attempts: d.attempts, Short: err == nil, Last: err}
}

// Size returns the underlying device capacity.
func (d *RetryDevice) Size() int64 { return d.under.Size() }

// Close closes the underlying device.
func (d *RetryDevice) Close() error { return d.under.Close() }

// CounterSink receives monotonic counter increments. internal/obs counters
// satisfy it structurally, keeping this package free of an obs dependency.
type CounterSink interface{ Add(n uint64) }

// SetCounters mirrors retry/exhaustion events into external counters (e.g.
// obs.Registry counters named obs.PCRetries / obs.PCExhausted). Either sink
// may be nil. Must be called before the device serves concurrent reads.
func (d *RetryDevice) SetCounters(retries, exhausted CounterSink) {
	d.retrySink = retries
	d.exhaustSink = exhausted
}

// Retries returns the number of re-issued read attempts.
func (d *RetryDevice) Retries() uint64 { return d.retries.Load() }

// Exhausted returns the number of reads that consumed the whole attempt
// budget without a clean result.
func (d *RetryDevice) Exhausted() uint64 { return d.exhausted.Load() }
