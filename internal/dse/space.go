package dse

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/perf"
)

// Well-known axis names. A model-scored evaluator understands lanes,
// dv, form and fclk; a hybrid one lanes, form and fclk; a sim-scored
// one lanes and fclk. Every evaluator also understands the device
// axis.
const (
	AxisLanes  = "lanes"
	AxisDV     = "dv"
	AxisForm   = "form"
	AxisFclk   = "fclk"
	AxisDevice = "device"
)

// Axis is one named dimension of a design space: the ordered list of
// values a variant can take along it. Values are plain ints — lane
// counts, vectorisation degrees, perf.Form codes, clock MHz — so any
// enumerable design knob fits. Axes whose values are indices into an
// external table (the device axis indexes a shelf of targets) carry
// Labels so keys and reports name the entries instead of the indices.
type Axis struct {
	Name   string
	Values []int
	// Labels optionally names each value; when set it must be aligned
	// with Values and label-unique, and Key/Describe render the label in
	// place of the raw int.
	Labels []string
}

// LanesAxis is the thread-parallelism axis (KNL, the C1/C2 region of
// Fig 5).
func LanesAxis(values []int) Axis { return Axis{Name: AxisLanes, Values: values} }

// DVAxis is the per-lane vectorisation axis (the C3 region of Fig 5).
func DVAxis(values []int) Axis { return Axis{Name: AxisDV, Values: values} }

// FormAxis is the memory-execution-form axis (§III-5).
func FormAxis(forms ...perf.Form) Axis {
	vals := make([]int, len(forms))
	for i, f := range forms {
		vals[i] = int(f)
	}
	return Axis{Name: AxisForm, Values: vals}
}

// FclkAxis is the clock-frequency axis. Values are device operating
// frequencies in MHz (axis values are plain ints); evaluators convert
// them to the Hz-denominated FD of Table I through FclkHz, so the cost
// model and the simulator price a variant at the same frequency.
func FclkAxis(mhz []int) Axis { return Axis{Name: AxisFclk, Values: mhz} }

// FclkHz converts an fclk-axis value (MHz) to the FD unit of
// perf.Params (Hz). Every evaluator must use this one conversion: the
// fclk-units differential test pins the model and sim paths to it.
func FclkHz(mhz int) float64 { return float64(mhz) * 1e6 }

// DeviceAxis is the multi-device axis: one value per shelf entry, in
// shelf order. Values are indices into the shelf slice handed to the
// evaluator (NewDeviceModeEvaluatorCache, core.Explore); the labels
// carry the device names so cache keys and reports read
// "device=virtex-7-690t" rather than "device=1". The same shelf slice,
// in the same order, must be passed to both this axis and the
// evaluator — the evaluator cross-checks the labels and fails loudly
// on a mismatch.
func DeviceAxis(shelf ...*device.Target) Axis {
	a := Axis{Name: AxisDevice}
	for i, t := range shelf {
		a.Values = append(a.Values, i)
		name := fmt.Sprintf("nil-device-%d", i)
		if t != nil {
			name = t.Name
		}
		a.Labels = append(a.Labels, name)
	}
	return a
}

// Space is an N-dimensional design space: the cross product of its
// axes. A Space is immutable after construction and safe for
// concurrent use.
type Space struct {
	axes  []Axis
	index map[string]int
	// strides are the row-major mixed-radix weights of each axis (first
	// axis slowest, matching Enumerate), precomputed so Index is a
	// handful of integer operations.
	strides []int
	size    int
}

// NewSpace builds a space from the given axes. Every axis must be
// named, non-empty and unique.
func NewSpace(axes ...Axis) (*Space, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("dse: space has no axes")
	}
	s := &Space{index: make(map[string]int, len(axes))}
	for _, a := range axes {
		if a.Name == "" {
			return nil, fmt.Errorf("dse: unnamed axis")
		}
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("dse: axis %q has no values", a.Name)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("dse: duplicate axis %q", a.Name)
		}
		if len(a.Labels) != 0 {
			if len(a.Labels) != len(a.Values) {
				return nil, fmt.Errorf("dse: axis %q has %d labels for %d values",
					a.Name, len(a.Labels), len(a.Values))
			}
			seen := make(map[string]bool, len(a.Labels))
			for _, l := range a.Labels {
				if l == "" || seen[l] {
					return nil, fmt.Errorf("dse: axis %q has empty or duplicate label %q", a.Name, l)
				}
				seen[l] = true
			}
		}
		s.index[a.Name] = len(s.axes)
		vals := make([]int, len(a.Values))
		copy(vals, a.Values)
		var labels []string
		if len(a.Labels) != 0 {
			labels = make([]string, len(a.Labels))
			copy(labels, a.Labels)
		}
		s.axes = append(s.axes, Axis{Name: a.Name, Values: vals, Labels: labels})
	}
	s.strides = make([]int, len(s.axes))
	s.size = 1
	for ai := len(s.axes) - 1; ai >= 0; ai-- {
		s.strides[ai] = s.size
		n := len(s.axes[ai].Values)
		if s.size > math.MaxInt/n {
			return nil, fmt.Errorf("dse: space %s has more points than an int can index", s.shape())
		}
		s.size *= n
	}
	return s, nil
}

// shape renders the axes with their lengths ("lanes[16] x dv[16]").
func (s *Space) shape() string {
	parts := make([]string, len(s.axes))
	for i, a := range s.axes {
		parts[i] = fmt.Sprintf("%s[%d]", a.Name, len(a.Values))
	}
	return strings.Join(parts, " x ")
}

// checkVariant errors unless v is a point of the space: one in-range
// value index per axis. The public entry points that take variants
// (Engine.EvalAll, Search.Lookup) validate with it; anything unchecked
// would index another point's memo cell or panic.
func (s *Space) checkVariant(v Variant) error {
	if len(v) != len(s.axes) {
		return fmt.Errorf("dse: variant %v has %d indices for a %d-axis space", v, len(v), len(s.axes))
	}
	for ai, idx := range v {
		if n := len(s.axes[ai].Values); idx < 0 || idx >= n {
			return fmt.Errorf("dse: variant %v: index %d outside axis %q of %d values", v, idx, s.axes[ai].Name, n)
		}
	}
	return nil
}

// Axes returns the axes in declaration order.
func (s *Space) Axes() []Axis { return s.axes }

// checkAxes errors when the space has an axis outside the allowed set
// — the guard every evaluator applies so an unsupported design knob
// fails loudly instead of being silently ignored.
func (s *Space) checkAxes(who string, allowed ...string) error {
	for _, a := range s.axes {
		ok := false
		for _, name := range allowed {
			if a.Name == name {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("dse: axis %q not supported by %s", a.Name, who)
		}
	}
	return nil
}

// axisGuard is an evaluator's axis check, run once per Space instead of
// once per point: it caches the binding of the last space it saw.
// Spaces are immutable, so a binding never goes stale, and racing
// workers that rebind the same space store equal bindings.
type axisGuard struct {
	who     string
	allowed []string
	last    atomic.Pointer[spaceBinding]
}

func newAxisGuard(who string, allowed ...string) *axisGuard {
	return &axisGuard{who: who, allowed: allowed}
}

// bind returns the guard's binding of s, checking s's axes against the
// allowed set on first sight.
func (g *axisGuard) bind(s *Space) (*spaceBinding, error) {
	if b := g.last.Load(); b != nil && b.space == s {
		return b, b.err
	}
	b := &spaceBinding{space: s, err: s.checkAxes(g.who, g.allowed...)}
	b.lanes, b.dv, b.form = s.axisPos(AxisLanes), s.axisPos(AxisDV), s.axisPos(AxisForm)
	b.fclk, b.device = s.axisPos(AxisFclk), s.axisPos(AxisDevice)
	g.last.Store(b)
	return b, b.err
}

// spaceBinding is an evaluator's view of one Space: the outcome of its
// axis check, and the positions of the well-known axes it reads, -1
// where the space has none.
type spaceBinding struct {
	space                         *Space
	err                           error
	lanes, dv, form, fclk, device int
}

// value returns the variant's value on the axis at position ai, or def
// when the space has no such axis (ai < 0).
func (b *spaceBinding) value(v Variant, ai, def int) int {
	if ai < 0 {
		return def
	}
	return b.space.axes[ai].Values[v[ai]]
}

// fclkHz resolves the fclk axis (MHz values) to the FD override in Hz,
// or 0 when the space has no fclk axis and the estimate's own Fmax
// applies. A non-positive axis value is rejected loudly: a point
// silently priced at the default Fmax while labelled with the
// requested fclk would poison the sweep.
func (b *spaceBinding) fclkHz(v Variant) (float64, error) {
	if b.fclk < 0 {
		return 0, nil
	}
	mhz := b.value(v, b.fclk, 0)
	if mhz <= 0 {
		return 0, fmt.Errorf("dse: fclk axis value must be a positive frequency in MHz, got %d", mhz)
	}
	return FclkHz(mhz), nil
}

// axisPos returns the position of the named axis, or -1.
func (s *Space) axisPos(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// AxisIndex returns the position of the named axis.
func (s *Space) AxisIndex(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Size is the number of points in the space.
func (s *Space) Size() int { return s.size }

// Index is the dense integer key of a variant: its position in
// Enumerate order, in [0, Size). It is the canonical per-run identity
// of a point — the engine's cell table, the search dedup sets and
// WallPruned's grouping all key on it — while the string Key stays the
// canonical cross-run identity for reports and the evalstore.
func (s *Space) Index(v Variant) int {
	i := 0
	for ai, idx := range v {
		i += idx * s.strides[ai]
	}
	return i
}

// Variant identifies one point of a Space: the value index chosen
// along each axis, in axis declaration order.
type Variant []int

// Value returns the concrete value the variant takes on the named
// axis, or false if the space has no such axis.
func (s *Space) Value(v Variant, name string) (int, bool) {
	i, ok := s.index[name]
	if !ok {
		return 0, false
	}
	return s.axes[i].Values[v[i]], true
}

// ValueDefault is Value with a fallback for absent axes.
func (s *Space) ValueDefault(v Variant, name string, def int) int {
	if val, ok := s.Value(v, name); ok {
		return val
	}
	return def
}

// Label returns the label the variant takes on the named axis, or
// false when the space has no such axis or the axis is unlabelled.
func (s *Space) Label(v Variant, name string) (string, bool) {
	i, ok := s.index[name]
	if !ok || len(s.axes[i].Labels) == 0 {
		return "", false
	}
	return s.axes[i].Labels[v[i]], true
}

// Key is the canonical cache key of a variant: identical keys mean
// identical evaluation inputs, which is what makes memoisation sound.
// Labelled axes key on the label (the shelf entry's identity), not the
// positional index.
func (s *Space) Key(v Variant) string {
	var b strings.Builder
	for i, a := range s.axes {
		if i > 0 {
			b.WriteByte(',')
		}
		if len(a.Labels) != 0 {
			fmt.Fprintf(&b, "%s=%s", a.Name, a.Labels[v[i]])
		} else {
			fmt.Fprintf(&b, "%s=%d", a.Name, a.Values[v[i]])
		}
	}
	return b.String()
}

// Describe renders the variant for error messages ("lanes=4 dv=2").
func (s *Space) Describe(v Variant) string {
	return strings.ReplaceAll(s.Key(v), ",", " ")
}

// Enumerate lists every point of the space in row-major order: the
// first axis varies slowest, the last fastest. The order is
// deterministic, so parallel evaluation returns results in a stable
// order regardless of worker scheduling. The variants share one backing
// array; each is capped at its own length, so appending to one never
// writes into the next.
func (s *Space) Enumerate() []Variant {
	n := len(s.axes)
	out := make([]Variant, 0, s.Size())
	all := make([]int, s.Size()*n)
	cur := make(Variant, n)
	for {
		k := len(out) * n
		v := Variant(all[k : k+n : k+n])
		copy(v, cur)
		out = append(out, v)
		i := len(cur) - 1
		for ; i >= 0; i-- {
			cur[i]++
			if cur[i] < len(s.axes[i].Values) {
				break
			}
			cur[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}
