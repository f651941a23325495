// Package evalstore is the persistent, content-addressed cache for
// exploration artifacts — the durable tier of ROADMAP item 5. The
// paper's workflow is explicitly incremental ("a one-time set of
// benchmark experiments ... for each FPGA target" prices every later
// exploration); the store generalises that from the membw table to
// the costly evaluation artifacts the DSE stack produces: calibrated
// per-device models and model estimates. Simulated cycles are not
// stored: a compiled design yields them from its structure
// (pipesim.CompiledDesign.Timing) in a fraction of a millisecond, too
// little for a record to save.
//
// Keys are SHA-256 over a length-prefixed encoding of (record kind,
// schema version, content parts) — for design-dependent records the
// parts start with the kernel IR via tir.Module.String(), then the
// variant key, then the full device.Target description. Bumping a
// record kind's schema version therefore changes every key of that
// kind: old records become misses, never errors, which is the whole
// invalidation policy.
//
// A Store is an in-memory write-through tier over one file per key in
// a cache directory. Reads degrade, never fail: a missing, truncated,
// bit-flipped, version-skewed or wrong-key file is a miss, and the
// caller recomputes and rewrites. The correctness bar is differential:
// a warm-cache run must be point-identical to a cold run (see the
// WarmCold tests in internal/dse and the CI byte-diff smoke).
package evalstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// magic identifies a store record file; a file without it is a miss.
const magic = "tytra-evalstore"

// Store is a persistent content-addressed cache: an in-memory
// write-through map in front of one file per key under dir. Safe for
// concurrent use.
type Store struct {
	dir string

	mu  sync.RWMutex
	mem map[string][]byte
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
	return &Store{dir: dir, mem: map[string][]byte{}}, nil
}

// Dir returns the store's on-disk root.
func (s *Store) Dir() string { return s.dir }

// Fingerprint hashes content parts into a hex digest using the store's
// canonical length-prefixed encoding (no part concatenation can
// collide with another split of the same bytes). The pipesim design
// cache keys its compiled designs with the same construction.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(strconv.Itoa(len(p))))
		h.Write([]byte{':'})
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
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

// envelope is the on-disk record frame. The key echo catches a record
// filed under the wrong name (or served for the wrong query), the
// payload checksum catches bit flips that survive JSON parsing, and
// the magic/kind pair catches foreign files in the cache directory.
type envelope struct {
	Magic   string          `json:"magic"`
	Kind    string          `json:"kind"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

func payloadSum(p []byte) string {
	sum := sha256.Sum256(p)
	return hex.EncodeToString(sum[:])
}

func (s *Store) path(kind, key string) string {
	return filepath.Join(s.dir, kind+"-"+key+".json")
}

// Get returns the payload stored under (kind, key), or ok=false on any
// miss — including a corrupt, truncated or mismatched file. Get never
// returns an error: the contract is that a damaged cache degrades to
// recompute.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	memKey := kind + "/" + key
	s.mu.RLock()
	if p, ok := s.mem[memKey]; ok {
		s.mu.RUnlock()
		return p, true
	}
	s.mu.RUnlock()

	data, err := os.ReadFile(s.path(kind, key))
	if err != nil {
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, false
	}
	if env.Magic != magic || env.Kind != kind || env.Key != key ||
		env.Payload == nil || env.Sum != payloadSum(env.Payload) {
		return nil, false
	}
	p := []byte(env.Payload)
	s.mu.Lock()
	s.mem[memKey] = p
	s.mu.Unlock()
	return p, true
}

// Put stores the payload under (kind, key): write-through to the
// in-memory tier and an atomic (tmp + rename) file write, so a crash
// mid-write leaves either the old record or none — never a torn one.
func (s *Store) Put(kind, key string, payload []byte) error {
	env := envelope{Magic: magic, Kind: kind, Key: key,
		Sum: payloadSum(payload), Payload: json.RawMessage(payload)}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("evalstore: encoding %s record: %w", kind, err)
	}

	s.mu.Lock()
	s.mem[kind+"/"+key] = payload
	s.mu.Unlock()

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
