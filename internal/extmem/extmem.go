// Package extmem stores a CSR target array in (simulated or real) external
// memory behind the user-space page cache, implementing the distributed
// *external* memory configuration of §VII-C: vertex state stays in DRAM
// (semi-external model) while the edge set — the bulk of the data — lives on
// node-local NVRAM.
package extmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"time"

	"havoqgt/internal/csr"
	"havoqgt/internal/pagecache"
)

// VertexBytes is the serialized size of one target vertex in the on-device
// layout; pagers use it to map target-index spans onto device byte ranges.
const VertexBytes = 8

const vertexBytes = VertexBytes

// Store is a csr.TargetStore whose targets are read through a page cache.
type Store struct {
	cache *pagecache.Cache
	n     uint64
	buf   []csr.Target
	raw   []byte
}

var _ csr.TargetStore = (*Store)(nil)

// NewStore wraps a page cache holding n serialized targets.
func NewStore(cache *pagecache.Cache, n uint64) *Store {
	return &Store{cache: cache, n: n}
}

// Read returns targets[lo:hi] decoded from the cache. The returned slice is
// reused by the next Read.
func (s *Store) Read(lo, hi uint64) []csr.Target {
	if hi < lo || hi > s.n {
		panic(fmt.Sprintf("extmem: bad target range [%d,%d) of %d", lo, hi, s.n))
	}
	n := int(hi - lo)
	if cap(s.buf) < n {
		s.buf = make([]csr.Target, n)
		s.raw = make([]byte, n*vertexBytes)
	}
	s.buf = s.buf[:n]
	s.raw = s.raw[:n*vertexBytes]
	// A full read is required: the range check above guarantees the request
	// lies inside the device, so io.EOF with a complete buffer (legal under
	// the io.ReaderAt contract) is the only acceptable non-nil error.
	// Device failure here is fail-stop by design: transient faults are
	// expected to be absorbed below the cache (wrap the device in
	// pagecache.RetryDevice); an error surviving that is a broken device,
	// and a silently wrong adjacency list would be worse than a crash.
	if nr, err := s.cache.ReadAt(s.raw, int64(lo)*vertexBytes); err != nil &&
		!(errors.Is(err, io.EOF) && nr == len(s.raw)) {
		panic(fmt.Sprintf("extmem: device read failed after %d bytes: %v", nr, err))
	}
	for i := 0; i < n; i++ {
		s.buf[i] = csr.Target(binary.LittleEndian.Uint64(s.raw[i*vertexBytes:]))
	}
	return s.buf
}

// Len returns the number of stored targets.
func (s *Store) Len() uint64 { return s.n }

// Close closes the cache and device.
func (s *Store) Close() error { return s.cache.Close() }

// Cache exposes the page cache for statistics.
func (s *Store) Cache() *pagecache.Cache { return s.cache }

// SerializeTargets encodes a target array into the on-device byte layout:
// the whole word, so the partition build's tags reach out-of-core rows.
func SerializeTargets(targets []csr.Target) []byte {
	raw := make([]byte, len(targets)*vertexBytes)
	for i, v := range targets {
		binary.LittleEndian.PutUint64(raw[i*vertexBytes:], uint64(v))
	}
	return raw
}

// NVRAMConfig describes a simulated node-local NVRAM part.
type NVRAMConfig struct {
	Latency    time.Duration // per-read service latency
	QueueDepth int           // concurrent reads the device sustains
	PageSize   int           // cache page size in bytes
	CacheBytes int           // DRAM budget for cached pages
}

// DefaultNVRAM approximates an enterprise NAND-Flash card (Fusion-io class):
// tens of microseconds of latency hidden behind a deep queue.
func DefaultNVRAM() NVRAMConfig {
	return NVRAMConfig{
		Latency:    25 * time.Microsecond,
		QueueDepth: 64,
		PageSize:   4096,
		CacheBytes: 1 << 22, // 4 MiB per rank unless overridden
	}
}

// CommoditySSD approximates a SATA SSD (Trestles class): higher latency,
// shallower queue.
func CommoditySSD() NVRAMConfig {
	return NVRAMConfig{
		Latency:    90 * time.Microsecond,
		QueueDepth: 16,
		PageSize:   4096,
		CacheBytes: 1 << 22,
	}
}

// NewSimStore places serialized targets on a simulated NVRAM device behind a
// page cache sized to cfg.CacheBytes.
func NewSimStore(targets []csr.Target, cfg NVRAMConfig) (*Store, error) {
	dev := pagecache.NewSimDevice(&pagecache.MemDevice{Data: SerializeTargets(targets)}, cfg.Latency, cfg.QueueDepth)
	frames := max(1, cfg.CacheBytes/cfg.PageSize)
	cache, err := pagecache.New(dev, cfg.PageSize, frames)
	if err != nil {
		return nil, err
	}
	return NewStore(cache, uint64(len(targets))), nil
}

// Targets-file footer: [count u64][crc64(payload) u64][magic u64], appended
// after the serialized payload. A torn write — power failure truncating the
// file anywhere — removes or garbles the footer, so open-time validation
// (size arithmetic + magic + count) catches it without scanning the payload;
// VerifyTargetsFile additionally checks the payload CRC.
const (
	footerBytes  = 24
	targetsMagic = 0x48564f5154475431 // "HVOQTGT1"
)

var targetsCRC = crc64.MakeTable(crc64.ECMA)

// ErrCorruptTargets reports a targets file that fails validation — most
// likely a torn write truncated it. Callers should treat the file as
// unusable and rebuild it; there is no partial-recovery path.
var ErrCorruptTargets = errors.New("extmem: targets file corrupt or torn")

// WriteTargetsTo streams the serialized targets plus the integrity footer to
// w. Factored out of WriteTargetsFile so fault harnesses can interpose a
// torn writer on the byte stream.
func WriteTargetsTo(w io.Writer, targets []csr.Target) error {
	raw := SerializeTargets(targets)
	if _, err := w.Write(raw); err != nil {
		return err
	}
	var foot [footerBytes]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(len(targets)))
	binary.LittleEndian.PutUint64(foot[8:], crc64.Checksum(raw, targetsCRC))
	binary.LittleEndian.PutUint64(foot[16:], targetsMagic)
	_, err := w.Write(foot[:])
	return err
}

// WriteTargetsFile serializes targets to path (the real-file configuration),
// with the integrity footer that OpenFileStore validates.
func WriteTargetsFile(path string, targets []csr.Target) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTargetsTo(f, targets); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readFooter validates the O(1) footer invariants of an open device and
// returns the target count.
func readFooter(dev pagecache.BlockDevice) (uint64, uint64, error) {
	size := dev.Size()
	if size < footerBytes || (size-footerBytes)%vertexBytes != 0 {
		return 0, 0, fmt.Errorf("%w: size %d is not payload + footer", ErrCorruptTargets, size)
	}
	var foot [footerBytes]byte
	if n, err := dev.ReadAt(foot[:], size-footerBytes); err != nil || n != footerBytes {
		return 0, 0, fmt.Errorf("%w: footer unreadable (%d bytes, %v)", ErrCorruptTargets, n, err)
	}
	if binary.LittleEndian.Uint64(foot[16:]) != targetsMagic {
		return 0, 0, fmt.Errorf("%w: bad magic (torn write?)", ErrCorruptTargets)
	}
	count := binary.LittleEndian.Uint64(foot[0:])
	if count*vertexBytes != uint64(size)-footerBytes {
		return 0, 0, fmt.Errorf("%w: footer count %d does not match payload size %d",
			ErrCorruptTargets, count, size-footerBytes)
	}
	return count, binary.LittleEndian.Uint64(foot[8:]), nil
}

// VerifyTargetsFile deep-checks a targets file: footer invariants plus the
// full payload CRC (O(file size); OpenFileStore performs only the O(1)
// checks).
func VerifyTargetsFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) < footerBytes || (len(raw)-footerBytes)%vertexBytes != 0 {
		return fmt.Errorf("%w: size %d is not payload + footer", ErrCorruptTargets, len(raw))
	}
	payload, foot := raw[:len(raw)-footerBytes], raw[len(raw)-footerBytes:]
	if binary.LittleEndian.Uint64(foot[16:]) != targetsMagic {
		return fmt.Errorf("%w: bad magic (torn write?)", ErrCorruptTargets)
	}
	if c := binary.LittleEndian.Uint64(foot[0:]); c*vertexBytes != uint64(len(payload)) {
		return fmt.Errorf("%w: footer count %d does not match payload size %d",
			ErrCorruptTargets, c, len(payload))
	}
	if crc64.Checksum(payload, targetsCRC) != binary.LittleEndian.Uint64(foot[8:]) {
		return fmt.Errorf("%w: payload checksum mismatch", ErrCorruptTargets)
	}
	return nil
}

// OpenFileStore opens a targets file through a page cache with the given
// page size and frame count, validating the integrity footer (returns an
// error wrapping ErrCorruptTargets on a torn or truncated file).
func OpenFileStore(path string, pageSize, frames int) (*Store, error) {
	dev, err := pagecache.OpenFile(path)
	if err != nil {
		return nil, err
	}
	count, _, err := readFooter(dev)
	if err != nil {
		dev.Close()
		return nil, err
	}
	cache, err := pagecache.New(dev, pageSize, frames)
	if err != nil {
		dev.Close()
		return nil, err
	}
	return NewStore(cache, count), nil
}

// ExternalizeCSR moves a matrix's in-memory targets onto simulated NVRAM,
// returning the store so callers can read cache statistics.
func ExternalizeCSR(m *csr.Matrix, cfg NVRAMConfig) (*Store, error) {
	mem, ok := m.Targets().(csr.MemTargets)
	if !ok {
		return nil, fmt.Errorf("extmem: matrix targets already external")
	}
	store, err := NewSimStore(mem, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.ReplaceTargets(store); err != nil {
		store.Close()
		return nil, err
	}
	return store, nil
}
