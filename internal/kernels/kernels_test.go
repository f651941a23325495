package kernels

import (
	"testing"
	"testing/quick"

	"repro/internal/tir"
)

func TestScatterGatherRoundTripProperty(t *testing.T) {
	f := func(raw []int64, lanesRaw uint8) bool {
		lanes := int(lanesRaw)%8 + 1
		// Pad to a multiple of lanes.
		n := (len(raw)/lanes + 1) * lanes
		full := make([]int64, n)
		copy(full, raw)
		parts, err := Scatter(full, lanes)
		if err != nil {
			return false
		}
		back := Gather(parts)
		if len(back) != len(full) {
			return false
		}
		for i := range full {
			if back[i] != full[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScatterErrors(t *testing.T) {
	if _, err := Scatter([]int64{1, 2, 3}, 2); err == nil {
		t.Error("non-divisible scatter accepted")
	}
	if _, err := Scatter([]int64{1, 2}, 0); err == nil {
		t.Error("zero lanes accepted")
	}
}

func TestBindInputsNaming(t *testing.T) {
	full := map[string][]int64{"p": {1, 2, 3, 4}}
	one, err := BindInputs(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := one["mem_main_p"]; !ok {
		t.Errorf("single-lane binding keys: %v", one)
	}
	two, err := BindInputs(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(two["mem_main_p0"]) != 2 || len(two["mem_main_p1"]) != 2 {
		t.Errorf("two-lane binding: %v", two)
	}
	if _, err := BindInputs(map[string][]int64{"p": {1, 2, 3}}, 2); err == nil {
		t.Error("non-divisible bind accepted")
	}
}

func TestCollectOutputErrors(t *testing.T) {
	if _, err := CollectOutput(map[string][]int64{}, "q", 1); err == nil {
		t.Error("missing single-lane output accepted")
	}
	if _, err := CollectOutput(map[string][]int64{"mem_main_q0": {1}}, "q", 2); err == nil {
		t.Error("missing lane output accepted")
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, spec := range []Spec{DefaultSOR(), DefaultLavaMD()} {
		a := spec.MakeInputs(42)
		b := spec.MakeInputs(42)
		c := spec.MakeInputs(43)
		for name := range a {
			if len(a[name]) != int(spec.GlobalSize()) {
				t.Errorf("%s/%s: length %d, want %d", spec.Name(), name, len(a[name]), spec.GlobalSize())
			}
			same, diff := true, false
			for i := range a[name] {
				if a[name][i] != b[name][i] {
					same = false
				}
				if a[name][i] != c[name][i] {
					diff = true
				}
			}
			if !same {
				t.Errorf("%s/%s: same seed produced different data", spec.Name(), name)
			}
			if !diff {
				t.Errorf("%s/%s: different seeds produced identical data", spec.Name(), name)
			}
		}
	}
}

func TestGoldenValueRanges(t *testing.T) {
	// Golden outputs stay within the stream element width (they feed
	// fixed-width hardware).
	specs := []struct {
		spec Spec
		bits int
	}{
		{SORSpec{IM: 15, JM: 10, KM: 4, Lanes: 1}, sorBits},
		{HotspotSpec{Rows: 16, Cols: 31, Lanes: 1}, hotspotBits},
		{LavaMDSpec{Pairs: 64, Lanes: 1}, lavaBits},
	}
	for _, c := range specs {
		in := c.spec.MakeInputs(9)
		out, accs := c.spec.Golden(in)
		mask := tir.UIntT(c.bits).Mask()
		for name, vals := range out {
			for i, v := range vals {
				if v < 0 || uint64(v) > mask {
					t.Fatalf("%s/%s[%d] = %d outside ui%d", c.spec.Name(), name, i, v, c.bits)
				}
			}
		}
		for name, v := range accs {
			if v < 0 || uint64(v) > mask {
				t.Errorf("%s acc %s = %d outside ui%d", c.spec.Name(), name, v, c.bits)
			}
		}
	}
}

func TestGoldenBoundaryZeroFill(t *testing.T) {
	// With an all-zero rhs and constant pressure field, interior SOR
	// points see a uniform neighbourhood while edge points see zeros:
	// the golden model must distinguish them.
	spec := SORSpec{IM: 15, JM: 10, KM: 4, Lanes: 1}
	n := spec.GlobalSize()
	p := make([]int64, n)
	rhs := make([]int64, n)
	for i := range p {
		p[i] = 100
	}
	out, _ := spec.Golden(map[string][]int64{"p": p, "rhs": rhs})
	pn := out["p_new"]
	mid := n / 2
	if !spec.InteriorIndex(mid) {
		t.Fatal("midpoint should be interior")
	}
	if pn[0] == pn[mid] {
		t.Error("edge point equals interior point despite zero-fill at the boundary")
	}
}

func TestSpecValidation(t *testing.T) {
	for i, spec := range []Spec{
		SORSpec{IM: 1, JM: 1, KM: 1, Lanes: 1},
		HotspotSpec{Rows: 1, Cols: 1, Lanes: 1},
		LavaMDSpec{Pairs: 0, Lanes: 1},
		SRADSpec{Rows: 1, Cols: 5, Lanes: 1},
	} {
		if spec.Validate() == nil {
			t.Errorf("bad geometry %d accepted", i)
		}
	}
	// A lane count must be positive and divide the NDRange; the front
	// end's reshapeTo refuses the others when the module is built.
	for i, spec := range []Spec{
		SORSpec{},
		SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 0},
		SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 7},
		HotspotSpec{Rows: 8, Cols: 9, Lanes: 5},
		LavaMDSpec{Pairs: 10, Lanes: 3},
	} {
		if _, err := spec.Module(); err == nil {
			t.Errorf("bad spec %d built a module", i)
		}
	}
	for _, b := range builtins {
		for _, spec := range []Spec{b.Table2, b.Explore} {
			if err := spec.Validate(); err != nil {
				t.Errorf("built-in %s rejected: %v", spec.Name(), err)
			}
		}
	}
}

func TestSpecMetadata(t *testing.T) {
	for _, b := range builtins {
		spec := b.Table2
		in := spec.MakeInputs(1)
		for _, sig := range spec.Kernel().Inputs {
			if _, ok := in[sig.Name]; !ok {
				t.Errorf("%s: MakeInputs missing %s", spec.Name(), sig.Name)
			}
		}
	}
}

func TestMemNameConvention(t *testing.T) {
	if MemName("p", -1) != "mem_main_p" {
		t.Error("single-lane name changed")
	}
	if MemName("p", 3) != "mem_main_p3" {
		t.Error("lane name changed")
	}
}
