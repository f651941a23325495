package evalstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func mustOpen(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") accepted")
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	s := mustOpen(t)
	key := Key("models", 1, "some-target")
	payload := []byte(`{"answer":42}`)
	if _, ok := s.Get("models", key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put("models", key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("models", key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}

	// A second store over the same directory (fresh memory tier) must
	// serve the record from disk.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got, ok = s2.Get("models", key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("disk Get = %q, %v; want %q, true", got, ok, payload)
	}

	// Kind partitions the namespace even for an identical key string.
	if _, ok := s2.Get("estimate", key); ok {
		t.Error("record served for the wrong kind")
	}
}

func TestPutOverwrites(t *testing.T) {
	s := mustOpen(t)
	key := Key("k", 1, "x")
	for _, payload := range []string{`{"v":1}`, `{"v":2}`} {
		if err := s.Put("k", key, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get("k", key)
		if !ok || string(got) != payload {
			t.Fatalf("Get = %q, %v; want %q", got, ok, payload)
		}
	}
}

// TestFingerprintLengthPrefixed: the part encoding must not let two
// different splits of the same bytes collide, and keys must cover kind
// and version.
func TestFingerprintLengthPrefixed(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Error("part splits collide")
	}
	if Fingerprint("ab") == Fingerprint("ab", "") {
		t.Error("trailing empty part collides")
	}
	if Key("k", 1, "p") == Key("k", 2, "p") {
		t.Error("schema version not part of the key")
	}
	if Key("k1", 1, "p") == Key("k2", 1, "p") {
		t.Error("kind not part of the key")
	}
	if Key("k", 1, "p") != Key("k", 1, "p") {
		t.Error("key not deterministic")
	}
}

// storeFile returns the single record file a one-Put store wrote.
func storeFile(t *testing.T, s *Store) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(s.Dir(), "*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want exactly one record file, got %v (err %v)", names, err)
	}
	return names[0]
}

// TestGetDegradesOnDamage: every flavour of on-disk damage must be a
// miss — never an error, never a panic, and never a wrong payload.
func TestGetDegradesOnDamage(t *testing.T) {
	key := Key("k", 1, "p")
	payload := []byte(`{"v":"sentinel-value"}`)
	write := func(t *testing.T) (*Store, string) {
		s := mustOpen(t)
		if err := s.Put("k", key, payload); err != nil {
			t.Fatal(err)
		}
		return s, storeFile(t, s)
	}
	damage := map[string]func(orig []byte) []byte{
		"truncated":     func(b []byte) []byte { return b[:len(b)/2] },
		"empty":         func([]byte) []byte { return nil },
		"garbage":       func([]byte) []byte { return []byte("not json at all") },
		"wrong magic":   func(b []byte) []byte { return bytes.Replace(b, []byte(magic), []byte("other-store-123"), 1) },
		"flipped value": func(b []byte) []byte { return bytes.Replace(b, []byte("sentinel-value"), []byte("sentinel-vAlue"), 1) },
		"null payload":  func(b []byte) []byte { return bytes.Replace(b, payload, []byte("null"), 1) },
	}
	for name, f := range damage {
		t.Run(name, func(t *testing.T) {
			s, path := write(t)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f(orig), 0o644); err != nil {
				t.Fatal(err)
			}
			// Fresh store: the memory tier must not mask the damage.
			s2, err := Open(s.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := s2.Get("k", key); ok {
				t.Fatalf("damaged record served: %q", got)
			}
			// Recompute-and-rewrite restores service.
			if err := s2.Put("k", key, payload); err != nil {
				t.Fatal(err)
			}
			got, ok := s2.Get("k", key)
			if !ok || !bytes.Equal(got, payload) {
				t.Fatalf("rewrite not served: %q, %v", got, ok)
			}
		})
	}
}

// TestGetRejectsForeignRecord: a valid record renamed onto another key's
// path (or queried under the wrong kind) must miss via the envelope
// echo, not serve the wrong content.
func TestGetRejectsForeignRecord(t *testing.T) {
	s := mustOpen(t)
	keyA, keyB := Key("k", 1, "a"), Key("k", 1, "b")
	if err := s.Put("k", keyA, []byte(`{"who":"a"}`)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path("k", keyA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path("k", keyB), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("k", keyB); ok {
		t.Fatalf("foreign record served: %q", got)
	}
}

// TestGetByteFlipSweep: flip every byte of a record file in turn; each
// Get must either miss or return the exact original payload, without
// panicking. This is the bit-rot contract in one loop.
func TestGetByteFlipSweep(t *testing.T) {
	key := Key("k", 1, "p")
	payload := []byte(`{"v":[1,2,3],"s":"abc"}`)
	s := mustOpen(t)
	if err := s.Put("k", key, payload); err != nil {
		t.Fatal(err)
	}
	path := storeFile(t, s)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x20
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(s.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s2.Get("k", key); ok && !bytes.Equal(got, payload) {
			t.Fatalf("byte %d flipped: served altered payload %q", i, got)
		}
	}
}

// TestStoreConcurrent: racing writers and readers on overlapping keys
// must stay coherent (run under -race in CI).
func TestStoreConcurrent(t *testing.T) {
	s := mustOpen(t)
	payload := []byte(`{"v":1}`)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := Key("k", 1, strings.Repeat("x", i%5))
				if err := s.Put("k", key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get("k", key); !ok || !bytes.Equal(got, payload) {
					t.Errorf("goroutine %d: Get = %q, %v", g, got, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// reopen returns a fresh store over s's directory: an empty memory
// tier, so every Get reads the file.
func reopen(t *testing.T, s *Store) *Store {
	t.Helper()
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	return s2
}

// TestPutServesPayloadBytes: any valid JSON payload — uncompacted, or
// with characters json.Marshal would HTML-escape — is served from disk
// byte for byte. A frame that re-encoded the payload through
// json.Marshal would no longer match the checksum of the original, and
// such a record would miss on every fresh store.
func TestPutServesPayloadBytes(t *testing.T) {
	s := mustOpen(t)
	for i, payload := range []string{`{"s":"a<b&c>"}`, `{ "v": 1 }`, "[1,\n 2]"} {
		key := Key("k", 1, strconv.Itoa(i))
		if err := s.Put("k", key, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		if got, ok := reopen(t, s).Get("k", key); !ok || string(got) != payload {
			t.Errorf("disk Get = %q, %v; want %q, true", got, ok, payload)
		}
	}
}

// TestPutRejects: Put refuses a payload that is not JSON, a record
// name that is not letters, digits, '-' and '_', and a record above
// the read cap — writing nothing, so no read can meet a record it
// cannot serve.
func TestPutRejects(t *testing.T) {
	big := []byte(`"` + strings.Repeat("x", maxRecordBytes) + `"`)
	cases := []struct {
		name, kind, key string
		payload         []byte
	}{
		{"invalid JSON", "k", "key", []byte(`{"v":`)},
		{"empty payload", "k", "key", nil},
		{"empty kind", "", "key", []byte(`1`)},
		{"path in key", "k", "../key", []byte(`1`)},
		{"quote in kind", `k"`, "key", []byte(`1`)},
		{"oversized record", "k", "key", big},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := mustOpen(t)
			if err := s.Put(c.kind, c.key, c.payload); err == nil {
				t.Fatal("Put accepted")
			}
			if _, ok := s.Get(c.kind, c.key); ok {
				t.Error("rejected record served")
			}
			if names, _ := filepath.Glob(filepath.Join(s.Dir(), "*")); len(names) != 0 {
				t.Errorf("rejected record left files %v", names)
			}
		})
	}
}

// TestGetOversizedFileIsMiss: a file above the cap under a record's
// name is a miss without being read — a 256 MiB sparse file costs the
// read no more than a few KiB of allocation.
func TestGetOversizedFileIsMiss(t *testing.T) {
	s := mustOpen(t)
	key := Key("k", 1, "p")
	f, err := os.Create(s.path("k", key))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(256 << 20); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := s.Get("k", key)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("oversized file served")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Errorf("Get of an oversized file allocated %d bytes", n)
	}
}

// oldEnvelope is the record frame as encoding/json writes it: the
// layout every existing record file has.
type oldEnvelope struct {
	Magic   string          `json:"magic"`
	Kind    string          `json:"kind"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

func envelopeOf(kind, key string, payload []byte) oldEnvelope {
	sum := sha256.Sum256(payload)
	return oldEnvelope{Magic: magic, Kind: kind, Key: key, Sum: hex.EncodeToString(sum[:]), Payload: payload}
}

// TestFrameMatchesEnvelope: for compact payloads without HTML
// characters — every payload the record kinds write — the file Put
// writes is byte-identical to json.Marshal of the envelope, so record
// files written through encoding/json stay hits.
func TestFrameMatchesEnvelope(t *testing.T) {
	s := mustOpen(t)
	for i, payload := range []string{`{"answer":42}`, `"str"`, `[1.5e-7,{"a":null}]`, `{"membw":"1 2\n3"}`} {
		key := Key("estimate", 3, strconv.Itoa(i))
		if err := s.Put("estimate", key, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(s.path("estimate", key))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(envelopeOf("estimate", key, []byte(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %s\nwant  %s", got, want)
		}
	}
}

// TestGetRejectsOtherLayouts: Get serves only the exact frame. The same
// envelope in any other JSON layout is a miss, as is a checksum that
// is not 64 lowercase hex digits.
func TestGetRejectsOtherLayouts(t *testing.T) {
	key := Key("k", 1, "p")
	payload := []byte(`{"v":1}`)
	env := envelopeOf("k", key, payload)
	indented, _ := json.MarshalIndent(env, "", " ")
	compact, _ := json.Marshal(env)
	reordered, _ := json.Marshal(struct {
		Kind    string          `json:"kind"`
		Magic   string          `json:"magic"`
		Key     string          `json:"key"`
		Sum     string          `json:"sum"`
		Payload json.RawMessage `json:"payload"`
	}{env.Kind, env.Magic, env.Key, env.Sum, env.Payload})
	layouts := map[string][]byte{
		"indented":         indented,
		"reordered":        reordered,
		"trailing newline": append(append([]byte(nil), compact...), '\n'),
		"uppercase sum":    bytes.Replace(compact, []byte(env.Sum), []byte(strings.ToUpper(env.Sum)), 1),
		"short sum":        bytes.Replace(compact, []byte(env.Sum), []byte(env.Sum[:63]), 1),
		"empty payload":    bytes.Replace(compact, payload, nil, 1),
	}
	for name, data := range layouts {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t)
			if err := os.WriteFile(s.path("k", key), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("k", key); ok {
				t.Fatalf("served %q", got)
			}
		})
	}
	// The compact envelope itself is the frame.
	s := mustOpen(t)
	if err := os.WriteFile(s.path("k", key), compact, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k", key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("compact envelope: Get = %q, %v", got, ok)
	}
}
