package pagecache

import (
	"errors"
	"io"
	"testing"
)

// retryFlakyDev fails the first failN reads with a transient error and tears
// (halves) the next tornN reads, then behaves perfectly.
type retryFlakyDev struct {
	MemDevice
	failN, tornN int
}

type retryTempErr struct{}

func (retryTempErr) Error() string   { return "transient device hiccup" }
func (retryTempErr) Transient() bool { return true }

func (d *retryFlakyDev) ReadAt(p []byte, off int64) (int, error) {
	if d.failN > 0 {
		d.failN--
		return 0, retryTempErr{}
	}
	n, err := d.MemDevice.ReadAt(p, off)
	if err == nil && d.tornN > 0 && off+int64(n) < d.Size() && n > 1 {
		d.tornN--
		n /= 2
	}
	return n, err
}

func TestRetryDeviceAbsorbsTransientFaults(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	dev := &retryFlakyDev{MemDevice: MemDevice{Data: data}, failN: 3, tornN: 2}
	rd := NewRetryDevice(dev, 8)
	p := make([]byte, 512)
	n, err := rd.ReadAt(p, 0)
	if err != nil || n != 512 {
		t.Fatalf("ReadAt = (%d, %v), want clean 512", n, err)
	}
	for i := range p {
		if p[i] != byte(i) {
			t.Fatalf("byte %d corrupted after retries", i)
		}
	}
	if rd.Retries() == 0 {
		t.Error("no retries recorded despite injected faults")
	}
	if rd.Exhausted() != 0 {
		t.Error("retry budget reported exhausted on a recoverable device")
	}
}

func TestRetryDevicePermanentErrorFailsFast(t *testing.T) {
	dev := &MemDevice{Data: make([]byte, 64)}
	rd := NewRetryDevice(dev, 8)
	// Out-of-range read returns a permanent (non-transient) error.
	if _, err := rd.ReadAt(make([]byte, 8), 4096); err == nil {
		t.Fatal("expected permanent error")
	}
	if rd.Retries() != 0 {
		t.Errorf("permanent error retried %d times, want 0", rd.Retries())
	}
}

func TestRetryDeviceExhaustion(t *testing.T) {
	dev := &retryFlakyDev{MemDevice: MemDevice{Data: make([]byte, 64)}, failN: 1 << 30}
	rd := NewRetryDevice(dev, 4)
	_, err := rd.ReadAt(make([]byte, 8), 0)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("exhausted retries should return ErrExhausted, got %v", err)
	}
	// The retry layer is the transient handler: what survives it is permanent,
	// so an exhausted read must NOT advertise itself as retryable even though
	// the last underlying failure was transient.
	if IsTransient(err) {
		t.Fatalf("exhausted retry budget reported transient: %v", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want *ExhaustedError, got %T", err)
	}
	if ex.Attempts != 4 || ex.Off != 0 || ex.Short {
		t.Errorf("ExhaustedError = %+v, want Attempts=4 Off=0 Short=false", ex)
	}
	// The last underlying failure stays reachable for inspection.
	var inner retryTempErr
	if !errors.As(ex.Last, &inner) {
		t.Errorf("last underlying error %v not reachable", ex.Last)
	}
	if rd.Exhausted() != 1 {
		t.Errorf("Exhausted = %d, want 1", rd.Exhausted())
	}
}

// TestRetryDeviceExhaustionTornRead covers the bug this sequence of tests
// exists for: a device that tears every read used to make RetryDevice return
// (n < len(p), nil) after the budget — a silent short read mid-device that
// upper layers could mistake for success. It must now be a typed error.
func TestRetryDeviceExhaustionTornRead(t *testing.T) {
	data := make([]byte, 4096)
	dev := &retryFlakyDev{MemDevice: MemDevice{Data: data}, tornN: 1 << 30}
	rd := NewRetryDevice(dev, 4)
	n, err := rd.ReadAt(make([]byte, 512), 0)
	if err == nil {
		t.Fatalf("torn-read exhaustion returned (n=%d, nil): silent short read", n)
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if IsTransient(err) {
		t.Fatalf("exhausted torn read reported transient: %v", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want *ExhaustedError, got %T", err)
	}
	if !ex.Short || ex.Last != nil {
		t.Errorf("ExhaustedError = %+v, want Short=true Last=nil", ex)
	}
}

func TestCacheOverRetryDeviceSurvivesFaults(t *testing.T) {
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i % 251)
	}
	dev := &retryFlakyDev{MemDevice: MemDevice{Data: data}, failN: 5, tornN: 3}
	c, err := New(NewRetryDevice(dev, 16), 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := c.ReadAt(got, 0); err != nil && !(errors.Is(err, io.EOF) && n == len(data)) {
		t.Fatalf("cached read failed: %v after %d bytes", err, n)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d (faults leaked through retry layer)", i, got[i], data[i])
		}
	}
}
