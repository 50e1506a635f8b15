package extmem

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"havoqgt/internal/csr"
	"havoqgt/internal/faults"
	"havoqgt/internal/obs"
	"havoqgt/internal/pagecache"
)

func tornTargets(n int) []csr.Target {
	out := make([]csr.Target, n)
	for i := range out {
		out[i] = csr.Target(i * 31)
	}
	return out
}

func TestTornWriteDetectedAtOpen(t *testing.T) {
	targets := tornTargets(500)
	full := int64(500*vertexBytes + footerBytes)
	// Tear at several points: mid-payload, at an 8-byte boundary, inside the
	// footer, and one byte short of complete. All must be caught at open.
	for _, cut := range []int64{100, 128, full - footerBytes + 5, full - 1} {
		path := filepath.Join(t.TempDir(), "targets.bin")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		tw := faults.NewTornWriter(f, cut, obs.NewRegistry())
		if err := WriteTargetsTo(tw, targets); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if !tw.Torn() {
			t.Fatalf("cut %d: TornWriter did not tear", cut)
		}
		if _, err := OpenFileStore(path, 256, 4); !errors.Is(err, ErrCorruptTargets) {
			t.Fatalf("cut %d: OpenFileStore = %v, want ErrCorruptTargets", cut, err)
		}
		if err := VerifyTargetsFile(path); !errors.Is(err, ErrCorruptTargets) {
			t.Fatalf("cut %d: VerifyTargetsFile = %v, want ErrCorruptTargets", cut, err)
		}
	}
}

func TestIntactFileVerifies(t *testing.T) {
	targets := tornTargets(300)
	path := filepath.Join(t.TempDir(), "targets.bin")
	if err := WriteTargetsFile(path, targets); err != nil {
		t.Fatal(err)
	}
	if err := VerifyTargetsFile(path); err != nil {
		t.Fatalf("intact file failed verification: %v", err)
	}
	s, err := OpenFileStore(path, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 300 {
		t.Fatalf("Len = %d, want 300", s.Len())
	}
	got := s.Read(10, 20)
	for i, v := range got {
		if v != targets[10+i] {
			t.Fatalf("Read[%d] = %d, want %d", i, v, targets[10+i])
		}
	}
}

func TestPayloadBitRotCaughtByVerify(t *testing.T) {
	targets := tornTargets(300)
	path := filepath.Join(t.TempDir(), "targets.bin")
	if err := WriteTargetsFile(path, targets); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[57] ^= 0x10 // silent single-bit payload corruption
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyTargetsFile(path); !errors.Is(err, ErrCorruptTargets) {
		t.Fatalf("VerifyTargetsFile missed payload bit rot: %v", err)
	}
}

func TestStoreOverFaultyDeviceWithRetry(t *testing.T) {
	// End-to-end device recovery: injected transient read errors and torn
	// reads below the cache, absorbed by RetryDevice, so Store.Read (which
	// is fail-stop) never sees them.
	targets := tornTargets(4096)
	reg := obs.NewRegistry()
	faulty := faults.NewFaultyDevice(
		&pagecache.MemDevice{Data: SerializeTargets(targets)},
		faults.Plan{Seed: 99, Device: faults.DeviceRule{ReadError: 0.3, TornRead: 0.2}},
		reg,
	)
	cache, err := pagecache.New(pagecache.NewRetryDevice(faulty, 0), 512, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore(cache, uint64(len(targets)))
	defer s.Close()
	for lo := uint64(0); lo+64 <= s.Len(); lo += 64 {
		got := s.Read(lo, lo+64)
		for i, v := range got {
			if v != targets[lo+uint64(i)] {
				t.Fatalf("Read[%d+%d] = %d, want %d", lo, i, v, targets[lo+uint64(i)])
			}
		}
	}
	errs := reg.Counter(obs.FaultInjected("device_read_error")).Value()
	torn := reg.Counter(obs.FaultInjected("device_torn_read")).Value()
	if errs == 0 && torn == 0 {
		t.Fatal("no device faults injected; test exercised nothing")
	}
}
