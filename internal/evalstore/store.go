// Package evalstore is the persistent, content-addressed cache for
// exploration artifacts. The paper's workflow is explicitly
// incremental ("a one-time set of benchmark experiments ... for each
// FPGA target" prices every later exploration); the store archives
// what a later run cannot cheaply recompute: each target's bandwidth
// benchmark table and model estimates. The cost model is recalibrated
// on load (LoadModels), since calibrating costs less than decoding it
// would. Simulated cycles are not stored: a compiled design yields
// them from its structure (pipesim.CompiledDesign.Timing) in a
// fraction of a millisecond, too little for a record to save.
//
// Keys are SHA-256 over a length-prefixed encoding of (record kind,
// schema version, content parts). A models record's part is the full
// device.Target description; an estimate record's parts are digests:
// the Fingerprint of the kernel IR (tir.Module.String()), the dv value
// and the Fingerprint of the target description, so a caller keying
// many records hashes each module and each target once
// (EstimateKeyOf). Bumping a record kind's schema version changes
// every key of that kind: old records become misses, never errors,
// which is the whole invalidation policy.
//
// A Store is one file per key in a cache directory and keeps nothing in
// memory: its callers memoise what they load, so a run reads each
// record at most once. Each file holds one fixed-layout JSON frame that
// Put writes and Get checks in one pass, without a JSON decoder: magic,
// kind and key echo, the payload's SHA-256, then the payload. Reads
// degrade, never fail: a missing, oversized, truncated, bit-flipped,
// version-skewed or wrong-key file is a miss, and the caller recomputes
// and rewrites. The correctness bar is differential: a warm-cache run
// must be point-identical to a cold run (see the WarmCold tests in
// internal/dse and the CI byte-diff smoke).
package evalstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// magic identifies a store record file; a file without it is a miss.
const magic = "tytra-evalstore"

// maxRecordBytes caps a record file. Get treats a larger file as a
// miss without reading it, and Put refuses to write one, so a
// write-back never leaves a record no read can serve. Records of the
// kinds the store holds are at most ~1.3 KB.
const maxRecordBytes = 1 << 20

// Store is a persistent content-addressed cache: one file per key
// under dir, read and written on every call. Safe for concurrent use.
type Store struct {
	dir string
}

// Open returns a store rooted at dir, creating the directory if
// needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("evalstore: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's on-disk root.
func (s *Store) Dir() string { return s.dir }

// Fingerprint hashes content parts into a hex digest using the store's
// canonical length-prefixed encoding (no part concatenation can
// collide with another split of the same bytes). The pipesim design
// cache keys its compiled designs with the same construction.
func Fingerprint(parts ...string) string {
	n := 0
	for _, p := range parts {
		n += len(p) + 21 // the decimal length and its ':'
	}
	b := make([]byte, 0, n)
	for _, p := range parts {
		b = strconv.AppendInt(b, int64(len(p)), 10)
		b = append(b, ':')
		b = append(b, p...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Key derives the content address of a record: the kind and its schema
// version are hashed alongside the content parts, so a version bump
// invalidates every record of the kind by construction.
func Key(kind string, version int, parts ...string) string {
	all := make([]string, 0, len(parts)+2)
	all = append(all, kind, strconv.Itoa(version))
	all = append(all, parts...)
	return Fingerprint(all...)
}

// A record file is exactly the frame
//
//	{"magic":"tytra-evalstore","kind":K,"key":KEY,"sum":HEX,"payload":PAYLOAD}
//
// with no other whitespace: the key echo catches a record filed under
// the wrong name (or served for the wrong query), the 64 lowercase hex
// digits of the payload's SHA-256 catch bit flips, and the magic/kind
// pair catches foreign files in the cache directory. For a payload
// json.Marshal produced, as every record kind's is, the frame is
// byte-identical to json.Marshal of a struct with those five fields in
// that order (which re-compacts and HTML-escapes the payload), so
// record files written that way stay hits.
const (
	frameMagic   = `{"magic":"` + magic + `","kind":"`
	frameKey     = `","key":"`
	frameSum     = `","sum":"`
	framePayload = `","payload":`
	sumDigits    = 2 * sha256.Size
)

// frame returns the record file for a payload.
func frame(kind, key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	b := make([]byte, 0, len(frameMagic)+len(kind)+len(frameKey)+len(key)+
		len(frameSum)+sumDigits+len(framePayload)+len(payload)+1)
	b = append(b, frameMagic...)
	b = append(b, kind...)
	b = append(b, frameKey...)
	b = append(b, key...)
	b = append(b, frameSum...)
	b = hex.AppendEncode(b, sum[:])
	b = append(b, framePayload...)
	b = append(b, payload...)
	return append(b, '}')
}

// unframe returns the payload of a record file for (kind, key), or
// false unless data is exactly the frame Put writes and the payload
// matches its checksum.
func unframe(data []byte, kind, key string) ([]byte, bool) {
	var ok bool
	for _, part := range [...]string{frameMagic, kind, frameKey, key, frameSum} {
		if data, ok = cutPrefix(data, part); !ok {
			return nil, false
		}
	}
	if len(data) < sumDigits {
		return nil, false
	}
	stored := data[:sumDigits]
	payload, ok := cutPrefix(data[sumDigits:], framePayload)
	if !ok || len(payload) < 2 || payload[len(payload)-1] != '}' {
		return nil, false
	}
	payload = payload[:len(payload)-1]
	sum := sha256.Sum256(payload)
	var want [sumDigits]byte
	hex.Encode(want[:], sum[:])
	if string(stored) != string(want[:]) {
		return nil, false
	}
	return payload, true
}

func cutPrefix(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return nil, false
	}
	return b[len(prefix):], true
}

// plainName reports whether s can name a record: non-empty ASCII
// letters, digits, '-' and '_'. Such a name is its own JSON string body
// and a safe file-name component.
func plainName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_') {
			return false
		}
	}
	return true
}

func (s *Store) path(kind, key string) string {
	return filepath.Join(s.dir, kind+"-"+key+".json")
}

// readRecord reads a record file in one read sized by its stat, or
// reports false for a missing, unreadable or oversized file (one that
// grows past its stat while being read included).
func readRecord(path string) ([]byte, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.Size() > maxRecordBytes {
		return nil, false
	}
	data := make([]byte, fi.Size()+1)
	n, err := io.ReadFull(f, data)
	if err != io.ErrUnexpectedEOF {
		return nil, false
	}
	return data[:n], true
}

// Get returns the payload stored under (kind, key), or ok=false on any
// miss — including a corrupt, truncated, oversized or mismatched file.
// Get never returns an error: the contract is that a damaged cache
// degrades to recompute.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	if !plainName(kind) || !plainName(key) {
		return nil, false
	}
	data, ok := readRecord(s.path(kind, key))
	if !ok {
		return nil, false
	}
	return unframe(data, kind, key)
}

// Put stores the payload, which must be valid JSON, under (kind, key),
// both plain names (letters, digits, '-' and '_'), in an atomic
// (tmp + rename) file write, so a crash mid-write leaves either the old
// record or none — never a torn one. A record above 1 MiB is refused.
func (s *Store) Put(kind, key string, payload []byte) error {
	if !plainName(kind) || !plainName(key) {
		return fmt.Errorf("evalstore: record name %q/%q is not letters, digits, '-' and '_'", kind, key)
	}
	if !json.Valid(payload) {
		return fmt.Errorf("evalstore: encoding %s record: payload is not valid JSON", kind)
	}
	data := frame(kind, key, payload)
	if len(data) > maxRecordBytes {
		return fmt.Errorf("evalstore: %s record of %d bytes exceeds the %d-byte cap", kind, len(data), maxRecordBytes)
	}

	path := s.path(kind, key)
	tmp, err := os.CreateTemp(s.dir, "."+kind+"-*.tmp")
	if err != nil {
		return fmt.Errorf("evalstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("evalstore: writing %s record: %w", kind, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("evalstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("evalstore: %w", err)
	}
	return nil
}
