package device

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The registry is the named device shelf: every target the tools can
// sweep, keyed by canonical name with board/family aliases. The
// built-in entries are the paper's two devices and the scaled
// educational variant; Register adds synthetic shelf entries (scaled
// devices for what-if sweeps, test doubles).
//
// Constructors are registered rather than *Target values so every
// Lookup hands out a fresh description: callers mutate targets (the
// examples tune bandwidths and capacities) and must never alias each
// other's copies.
type registryEntry struct {
	canonical string
	aliases   []string
	make      func() *Target
}

var (
	registryMu sync.RWMutex
	registry   []registryEntry
	byAlias    map[string]int // canonical and alias names -> registry index
)

func init() {
	byAlias = map[string]int{}
	MustRegister(StratixVGSD8, "stratix-v", "maia")
	MustRegister(Virtex7690T, "virtex-7", "adm-pcie-7v3")
	MustRegister(GSD8Edu, "edu")
}

// MustRegister is Register for init-time target tables, where a
// duplicate name is a programming error. Code registering targets from
// configuration or user input must call Register and handle the error.
func MustRegister(mk func() *Target, aliases ...string) {
	if err := Register(mk, aliases...); err != nil {
		panic(err)
	}
}

// Register adds a target constructor to the registry under its
// Target.Name, with optional extra aliases. The constructor is invoked
// once to validate the description and learn the canonical name; every
// Lookup afterwards gets a fresh copy. Duplicate names or aliases are
// rejected.
func Register(mk func() *Target, aliases ...string) error {
	t := mk()
	if t == nil {
		return fmt.Errorf("device: Register: constructor returned nil")
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("device: Register: %w", err)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	names := append([]string{t.Name}, aliases...)
	for _, n := range names {
		if _, dup := byAlias[n]; dup {
			return fmt.Errorf("device: Register: name %q already registered", n)
		}
	}
	idx := len(registry)
	registry = append(registry, registryEntry{canonical: t.Name, aliases: aliases, make: mk})
	for _, n := range names {
		byAlias[n] = idx
	}
	return nil
}

// Names returns the canonical names of every registered target, sorted.
// It is the device shelf the -devices flag can sweep.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.canonical)
	}
	sort.Strings(out)
	return out
}

// Lookup resolves a canonical name or alias to a fresh copy of the
// registered target. Unknown names list the valid ones.
func Lookup(name string) (*Target, error) {
	registryMu.RLock()
	idx, ok := byAlias[name]
	var mk func() *Target
	if ok {
		mk = registry[idx].make
	}
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("device: unknown target %q (valid targets: %s)",
			name, strings.Join(Names(), ", "))
	}
	return mk(), nil
}

// Shelf resolves a list of names to targets, rejecting duplicates — a
// device axis with the same target twice would double-count its points.
// Names may be canonical or aliases; duplicates are detected on the
// canonical name.
func Shelf(names ...string) ([]*Target, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("device: empty device shelf")
	}
	out := make([]*Target, 0, len(names))
	seen := map[string]string{}
	for _, n := range names {
		t, err := Lookup(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[t.Name]; dup {
			return nil, fmt.Errorf("device: shelf lists %s twice (%q and %q)", t.Name, prev, n)
		}
		seen[t.Name] = n
		out = append(out, t)
	}
	return out, nil
}
