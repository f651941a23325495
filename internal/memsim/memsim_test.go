package memsim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func testDRAM(t *testing.T) *DRAM {
	t.Helper()
	d, err := NewDRAM(device.Virtex7690T().DRAM)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDRAMRejectsBadSpec(t *testing.T) {
	bad := []device.DRAMSpec{
		{},
		{Banks: 8, RowBytes: 2048, BurstBytes: 64},                                  // no clock
		{Banks: 0, RowBytes: 2048, BurstBytes: 64, ClockHz: 1, PeakBandwidth: 1},    // no banks
		{Banks: 8, RowBytes: 0, BurstBytes: 64, ClockHz: 1, PeakBandwidth: 1},       // no row
		{Banks: 8, RowBytes: 2048, BurstBytes: 0, ClockHz: 1e9, PeakBandwidth: 1e9}, // no burst
	}
	for i, spec := range bad {
		if _, err := NewDRAM(spec); err == nil {
			t.Errorf("spec %d: want error", i)
		}
	}
}

func TestContiguousNeverSlowerThanStrided(t *testing.T) {
	d := testDRAM(t)
	f := func(nRaw uint16, strideRaw uint8) bool {
		n := int64(nRaw)%10000 + 64
		stride := int64(strideRaw)%1000 + 2
		d.Reset()
		cont, err := d.StreamSeconds(0, n, 4, 1)
		if err != nil {
			return false
		}
		d.Reset()
		str, err := d.StreamSeconds(0, n, 4, stride)
		if err != nil {
			return false
		}
		return cont <= str
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamTimeMonotonicInSize(t *testing.T) {
	d := testDRAM(t)
	prev := 0.0
	for _, n := range []int64{100, 1000, 10000, 100000, 1000000} {
		d.Reset()
		s, err := d.StreamSeconds(0, n, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if s <= prev {
			t.Errorf("n=%d: %v not greater than previous %v", n, s, prev)
		}
		prev = s
	}
}

func TestContiguousApproachesPeak(t *testing.T) {
	// A very large contiguous stream must sustain close to peak: the
	// only loss is the row-crossing penalty.
	d := testDRAM(t)
	spec := device.Virtex7690T().DRAM
	n := int64(16 << 20)
	s, err := d.StreamSeconds(0, n, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	bw := float64(n*4) / s
	if bw > spec.PeakBandwidth {
		t.Errorf("sustained %v exceeds peak %v", bw, spec.PeakBandwidth)
	}
	if bw < 0.85*spec.PeakBandwidth {
		t.Errorf("sustained %v below 85%% of peak %v", bw, spec.PeakBandwidth)
	}
}

func TestLargeStrideWastesBursts(t *testing.T) {
	// Stride beyond the row size forces a transaction and an activation
	// per element: sustained bandwidth must collapse by >= an order of
	// magnitude versus contiguous.
	d := testDRAM(t)
	n := int64(1 << 20)
	cont, err := d.StreamSeconds(0, n, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.Reset()
	str, err := d.StreamSeconds(0, n, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if str < 10*cont {
		t.Errorf("strided %v not >= 10x contiguous %v", str, cont)
	}
}

func TestNegativeStrideCostsLikePositive(t *testing.T) {
	d := testDRAM(t)
	d.Reset()
	a, _ := d.StreamSeconds(1<<20, 1000, 4, 64)
	d.Reset()
	b, _ := d.StreamSeconds(1<<20, 1000, 4, -64)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("mirror stream cost differs: %v vs %v", a, b)
	}
}

func TestStreamSecondsEdgeCases(t *testing.T) {
	d := testDRAM(t)
	if s, err := d.StreamSeconds(0, 0, 4, 1); err != nil || s != 0 {
		t.Errorf("zero elements: %v, %v", s, err)
	}
	if _, err := d.StreamSeconds(0, 10, 0, 1); err == nil {
		t.Error("zero element size: want error")
	}
	// Stride 0 is treated as contiguous.
	d.Reset()
	a, err := d.StreamSeconds(0, 100, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	d.Reset()
	b, _ := d.StreamSeconds(0, 100, 4, 1)
	if a != b {
		t.Errorf("stride 0 (%v) != stride 1 (%v)", a, b)
	}
}

func TestRowBufferLocality(t *testing.T) {
	// Two consecutive sweeps of the same small region: the second sweep
	// must be cheaper or equal, because rows stay open.
	d := testDRAM(t)
	first, err := d.StreamSeconds(0, 256, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.StreamSeconds(0, 256, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if second > first {
		t.Errorf("second sweep (%v) slower than first (%v) despite open rows", second, first)
	}
}

// RandomSeconds simulates n single-element accesses at pseudo-random
// addresses within a window of windowBytes. The paper observes "little
// difference in sustained bandwidth between fixed-stride and true
// random access" (§V-C); the model reproduces that because both defeat
// burst coalescing and pay the controller round trip — the row-buffer
// hit rate differs only marginally once the stride exceeds the row size.
func (d *DRAM) RandomSeconds(seed uint64, n int64, elemBytes int, windowBytes int64) (float64, error) {
	if n <= 0 {
		return 0, nil
	}
	if elemBytes <= 0 {
		return 0, fmt.Errorf("memsim: element size must be positive, got %d", elemBytes)
	}
	if windowBytes <= int64(elemBytes) {
		return 0, fmt.Errorf("memsim: random window must exceed one element")
	}
	cycles := 0.0
	bc := d.burstCycles()
	state := seed*6364136223846793005 + 1442695040888963407
	slots := windowBytes / int64(elemBytes)
	for i := int64(0); i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		addr := int64((state>>17)%uint64(slots)) * int64(elemBytes)
		cycles += bc + float64(d.spec.TransCycles) + d.touch(addr)
	}
	return cycles/d.spec.ClockHz + d.spec.SetupSeconds, nil
}

func TestRandomAccessMatchesStrided(t *testing.T) {
	// The paper's §V-C observation: "there is little difference in
	// sustained bandwidth between fixed-stride and true random access".
	// Both defeat coalescing and pay the transaction round trip.
	d := testDRAM(t)
	n := int64(1 << 18)
	d.Reset()
	strided, err := d.StreamSeconds(0, n, 4, 4096)
	if err != nil {
		t.Fatal(err)
	}
	d.Reset()
	random, err := d.RandomSeconds(42, n, 4, n*4096)
	if err != nil {
		t.Fatal(err)
	}
	ratio := random / strided
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("random/strided time ratio = %.3f; the paper reports little difference", ratio)
	}
}

func TestRandomAccessErrors(t *testing.T) {
	d := testDRAM(t)
	if s, err := d.RandomSeconds(1, 0, 4, 1024); err != nil || s != 0 {
		t.Errorf("zero accesses: %v, %v", s, err)
	}
	if _, err := d.RandomSeconds(1, 10, 0, 1024); err == nil {
		t.Error("zero element size accepted")
	}
	if _, err := d.RandomSeconds(1, 10, 4, 4); err == nil {
		t.Error("degenerate window accepted")
	}
}

func TestRandomAccessDeterministic(t *testing.T) {
	d := testDRAM(t)
	d.Reset()
	a, _ := d.RandomSeconds(7, 1000, 4, 1<<20)
	d.Reset()
	b, _ := d.RandomSeconds(7, 1000, 4, 1<<20)
	if a != b {
		t.Errorf("same seed, different cost: %v vs %v", a, b)
	}
}

func TestLinkModel(t *testing.T) {
	l, err := NewLink(device.StratixVGSD8().Link)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.TransferSeconds(0); got != 0 {
		t.Errorf("zero bytes: %v", got)
	}
	// Sustained bandwidth grows with transfer size (latency amortised)
	// and never exceeds the derated payload rate.
	spec := device.StratixVGSD8().Link
	prev := 0.0
	for _, b := range []int64{1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26} {
		bw := l.SustainedBandwidth(b)
		if bw <= prev {
			t.Errorf("bytes=%d: bandwidth %v not increasing (prev %v)", b, bw, prev)
		}
		if bw > spec.PeakBandwidth*(1-spec.Overhead) {
			t.Errorf("bytes=%d: bandwidth %v exceeds derated peak", b, bw)
		}
		prev = bw
	}
}

func TestLinkRejectsBadSpec(t *testing.T) {
	if _, err := NewLink(device.LinkSpec{}); err == nil {
		t.Error("empty spec: want error")
	}
	if _, err := NewLink(device.LinkSpec{PeakBandwidth: 1e9, PacketBytes: 256, Overhead: 1.5}); err == nil {
		t.Error("overhead >= 1: want error")
	}
}

// touch accounts a row activation if the address falls outside the open
// row of its bank, returning the penalty cycles.
func (d *DRAM) touch(addr int64) float64 {
	row := addr / int64(d.spec.RowBytes)
	bank := int(row % int64(d.spec.Banks))
	if d.openRow[bank] == row {
		return 0
	}
	d.openRow[bank] = row
	return float64(d.spec.RowMissCycles)
}

// streamSecondsPerAccess is StreamSeconds computed the direct way, each
// address divided into its row and bank by touch. The incremental walk
// must match it bit for bit.
func streamSecondsPerAccess(d *DRAM, base, n int64, elemBytes int, strideElems int64) float64 {
	if n <= 0 {
		return 0
	}
	if strideElems == 0 {
		strideElems = 1
	}
	if strideElems < 0 {
		strideElems = -strideElems
	}
	cycles := 0.0
	bc := d.burstCycles()
	if strideElems == 1 {
		bytes := n * int64(elemBytes)
		bursts := (bytes + int64(d.spec.BurstBytes) - 1) / int64(d.spec.BurstBytes)
		for b := int64(0); b < bursts; b++ {
			addr := base + b*int64(d.spec.BurstBytes)
			cycles += bc + d.touch(addr)
		}
	} else {
		strideBytes := strideElems * int64(elemBytes)
		for i := int64(0); i < n; i++ {
			addr := base + i*strideBytes
			cycles += bc + float64(d.spec.TransCycles) + d.touch(addr)
		}
	}
	return cycles/d.spec.ClockHz + d.spec.SetupSeconds
}

// randomDRAMSpec draws a DRAM channel whose geometry need not be a
// power of two anywhere.
func randomDRAMSpec(r *rand.Rand) device.DRAMSpec {
	pick := func(xs ...int) int { return xs[r.IntN(len(xs))] }
	return device.DRAMSpec{
		PeakBandwidth: 1e8 + r.Float64()*5e10,
		ClockHz:       1e8 + r.Float64()*2e9,
		BurstBytes:    pick(1, 3, 8, 32, 48, 64, 100, 128, 1+r.IntN(300)),
		RowBytes:      pick(1, 7, 64, 1000, 1536, 2048, 4096, 1+r.IntN(5000)),
		Banks:         pick(1, 2, 3, 5, 8, 12, 16, 1+r.IntN(20)),
		RowMissCycles: r.IntN(60),
		TransCycles:   r.IntN(400),
		SetupSeconds:  r.Float64() * 1e-5,
	}
}

// walkSpan is the distance from the first to the last address the
// stream touches: whole bursts when contiguous, elements otherwise.
func walkSpan(spec device.DRAMSpec, n int64, elemBytes int, strideElems int64) int64 {
	if strideElems >= -1 && strideElems <= 1 {
		burst := int64(spec.BurstBytes)
		return (n*int64(elemBytes) - 1) / burst * burst
	}
	return (n - 1) * max(strideElems, -strideElems) * int64(elemBytes)
}

// divisorUpTo16 returns a random element size in 1..16 that divides x.
func divisorUpTo16(r *rand.Rand, x int64) int {
	var ds []int
	for e := 1; e <= 16; e++ {
		if x%int64(e) == 0 {
			ds = append(ds, e)
		}
	}
	return ds[r.IntN(len(ds))]
}

// TestStreamWalkMatchesPerAccess checks the incremental row/bank walk of
// StreamSeconds against the per-access reference over seeded random
// channels, bases, strides and element sizes, bit for bit, with the row
// buffers compared after every call of a chain that shares them.
func TestStreamWalkMatchesPerAccess(t *testing.T) {
	r := rand.New(rand.NewPCG(14, 2024))
	for trial := 0; trial < 120; trial++ {
		spec := randomDRAMSpec(r)
		got, err := NewDRAM(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewDRAM(spec)
		row, rowsBanks := int64(spec.RowBytes), int64(spec.RowBytes)*int64(spec.Banks)
		for call := 0; call < 30; call++ {
			if r.IntN(8) == 0 {
				got.Reset()
				want.Reset()
			}
			n := 1 + r.Int64N(1500)
			elem := 1 + r.IntN(16)
			var stride int64
			switch r.IntN(7) {
			case 0:
				stride = -1 - r.Int64N(3*row)
			case 1:
				stride = 0
			case 2:
				stride = 1
			case 3: // below a row
				stride = 2 + r.Int64N(max(1, row/int64(elem)))
			case 4: // exactly one row
				elem = divisorUpTo16(r, row)
				stride = row / int64(elem)
			case 5: // a multiple of row × banks
				elem = divisorUpTo16(r, rowsBanks)
				stride = (1 + r.Int64N(4)) * rowsBanks / int64(elem)
			default:
				stride = 2 + r.Int64N(4*rowsBanks)
			}
			var base int64
			switch r.IntN(4) {
			case 0:
				base = 0
			case 1: // at or next to a row boundary
				base = r.Int64N(64)*row + r.Int64N(3) - 1
			case 2: // a walk whose last access lands on math.MaxInt64
				base = math.MaxInt64 - walkSpan(spec, n, elem, stride)
			default:
				base = r.Int64N(1 << 40)
			}
			base = max(base, 0)
			gotSecs, err := got.StreamSeconds(base, n, elem, stride)
			if err != nil {
				t.Fatalf("spec %+v: StreamSeconds(%d, %d, %d, %d): %v", spec, base, n, elem, stride, err)
			}
			wantSecs := streamSecondsPerAccess(want, base, n, elem, stride)
			if math.Float64bits(gotSecs) != math.Float64bits(wantSecs) {
				t.Fatalf("spec %+v: StreamSeconds(%d, %d, %d, %d) = %v, per-access reference %v",
					spec, base, n, elem, stride, gotSecs, wantSecs)
			}
			if !slices.Equal(got.openRow, want.openRow) {
				t.Fatalf("spec %+v: after StreamSeconds(%d, %d, %d, %d) open rows %v, reference %v",
					spec, base, n, elem, stride, got.openRow, want.openRow)
			}
		}
	}
}

// TestContiguousSecondsMatchesPerStream checks the prefix walk of
// ContiguousSeconds against a separate StreamSeconds call per size, each
// on a copy of the channel's starting row buffers, over seeded random
// channels, element sizes and size lists that are unsorted, repeat
// sizes and hold empty streams: seconds bit for bit, and the row
// buffers after the call against those the largest stream leaves.
func TestContiguousSecondsMatchesPerStream(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 2024))
	for trial := 0; trial < 120; trial++ {
		spec := randomDRAMSpec(r)
		got, err := NewDRAM(spec)
		if err != nil {
			t.Fatal(err)
		}
		if r.IntN(2) == 0 {
			// Start from row buffers an earlier stream left.
			if _, err := got.StreamSeconds(r.Int64N(1<<20), 1+r.Int64N(500), 4, r.Int64N(9)); err != nil {
				t.Fatal(err)
			}
		}
		start := slices.Clone(got.openRow)
		elem := 1 + r.IntN(16)
		ns := make([]int64, 1+r.IntN(12))
		for i := range ns {
			switch r.IntN(6) {
			case 0:
				ns[i] = -r.Int64N(3) // empty
			case 1:
				if i > 0 {
					ns[i] = ns[r.IntN(i)] // a repeat
					break
				}
				fallthrough
			default:
				ns[i] = 1 + r.Int64N(5000)
			}
		}
		secs, err := got.ContiguousSeconds(ns, elem)
		if err != nil {
			t.Fatalf("spec %+v: ContiguousSeconds(%v, %d): %v", spec, ns, elem, err)
		}
		var afterLargest []int64
		largest := int64(0)
		for i, n := range ns {
			want := &DRAM{spec: spec, openRow: slices.Clone(start)}
			wantSecs, err := want.StreamSeconds(0, n, elem, 1)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(secs[i]) != math.Float64bits(wantSecs) {
				t.Fatalf("spec %+v: ContiguousSeconds(%v, %d)[%d] = %v, StreamSeconds(0, %d, %d, 1) = %v",
					spec, ns, elem, i, secs[i], n, elem, wantSecs)
			}
			if n > largest {
				largest, afterLargest = n, want.openRow
			}
		}
		if afterLargest == nil {
			afterLargest = start
		}
		if !slices.Equal(got.openRow, afterLargest) {
			t.Fatalf("spec %+v: after ContiguousSeconds(%v, %d) open rows %v, after the largest stream %v",
				spec, ns, elem, got.openRow, afterLargest)
		}
	}
}

// TestContiguousSecondsErrors checks that ContiguousSeconds fails with
// the first error StreamSeconds returns over the sizes in order, and
// that empty streams need no valid element size.
func TestContiguousSecondsErrors(t *testing.T) {
	cases := []struct {
		ns   []int64
		elem int
	}{
		{[]int64{0, -5}, 0},
		{[]int64{10, 20}, 0},
		{[]int64{0, 10}, -4},
		{[]int64{8, math.MaxInt64 / 2}, 4},
		{[]int64{math.MaxInt64 / 2, math.MaxInt64}, 4},
		{[]int64{16, -1, math.MaxInt64}, 2},
	}
	for _, c := range cases {
		_, gotErr := testDRAM(t).ContiguousSeconds(c.ns, c.elem)
		var wantErr error
		for _, n := range c.ns {
			if _, wantErr = testDRAM(t).StreamSeconds(0, n, c.elem, 1); wantErr != nil {
				break
			}
		}
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("ContiguousSeconds(%v, %d) error %v, StreamSeconds in order %v", c.ns, c.elem, gotErr, wantErr)
		}
	}
}

func TestStreamSecondsRejectsBadAddresses(t *testing.T) {
	cases := []struct {
		name    string
		base, n int64
		elem    int
		stride  int64
		wantErr bool
	}{
		{"negative base, contiguous", -4096, 10, 4, 1, true},
		{"negative base, strided", -1, 10, 4, 7, true},
		{"negative base, one element", -2048, 1, 4, 64, true},
		{"contiguous past the top", math.MaxInt64 - 100, 1000, 4, 1, true},
		{"contiguous byte count overflows", 0, math.MaxInt64 / 2, 4, 1, true},
		{"strided past the top", 0, 3, 4, math.MaxInt64 / 4, true},
		{"mirrored stride past the top", 1 << 20, 1000, 4, -(math.MaxInt64 / 1000), true},
		{"stride math.MinInt64", 0, 2, 4, math.MinInt64, true},
		{"strided ending at the top", math.MaxInt64 - 2*8*1000, 3, 8, 1000, false},
		{"contiguous ending in the top burst", math.MaxInt64 - 63, 16, 4, 1, false},
		{"one element at stride math.MinInt64", 0, 1, 4, math.MinInt64, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := testDRAM(t)
			secs, err := d.StreamSeconds(c.base, c.n, c.elem, c.stride)
			if c.wantErr {
				if err == nil {
					t.Fatalf("StreamSeconds(%d, %d, %d, %d) = %v, want error", c.base, c.n, c.elem, c.stride, secs)
				}
				return
			}
			if err != nil {
				t.Fatalf("StreamSeconds(%d, %d, %d, %d): %v", c.base, c.n, c.elem, c.stride, err)
			}
			if want := streamSecondsPerAccess(testDRAM(t), c.base, c.n, c.elem, c.stride); secs != want {
				t.Errorf("StreamSeconds(%d, %d, %d, %d) = %v, per-access reference %v", c.base, c.n, c.elem, c.stride, secs, want)
			}
		})
	}
}

// columnWalkPerPass is ColumnWalkSeconds the direct way: one
// StreamSeconds call per pass, every pass walked, the seconds summed in
// pass order.
func columnWalkPerPass(d *DRAM, dim int64, elemBytes int) (float64, error) {
	var secs float64
	for c := int64(0); c < dim; c++ {
		s, err := d.StreamSeconds(c*int64(elemBytes), dim, elemBytes, dim)
		if err != nil {
			return 0, err
		}
		secs += s
	}
	return secs, nil
}

// maxShiftDim bounds the dims TestColumnWalkMatchesPerPass draws to
// cross two whole-row shifts, and so the per-pass reference's cost.
const maxShiftDim = 4096

// TestColumnWalkMatchesPerPass checks ColumnWalkSeconds against the
// per-pass reference over seeded random channels (rows and banks that
// are not powers of two, rows shorter than an element), element sizes
// 1..16 and dims 1..1000, bit for bit, with the row buffers compared
// after every call of a chain that shares them, so calls also start
// from row buffers a previous walk left. Some dims lie in [2P, 3P],
// where P = RowBytes/gcd(RowBytes, elemBytes) is the period after which
// a pass is an earlier one moved by whole rows, so those walks reach
// passes moved by one row shift and by two; the test fails unless every
// element size gets such a walk.
func TestColumnWalkMatchesPerPass(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 2024))
	var shifted [17]bool // by element size: a walk of at least two periods
	for trial := 0; trial < 60; trial++ {
		spec := randomDRAMSpec(r)
		got, err := NewDRAM(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewDRAM(spec)
		row := int64(spec.RowBytes)
		for call := 0; call < 6; call++ {
			if r.IntN(3) == 0 {
				got.Reset()
				want.Reset()
			}
			elem := 1 + r.IntN(16)
			var dim int64
			switch r.IntN(5) {
			case 0:
				dim = 1 + r.Int64N(8)
			case 1: // a column stride of about one to three rows
				dim = max(1, row*(1+r.Int64N(3))/int64(elem))
				dim = min(dim, 1000)
			case 2: // two to three periods of whole-row shifts
				var fit []int
				for e := 1; e <= 16; e++ {
					if 3*(row/gcd(row, int64(e))) <= maxShiftDim {
						fit = append(fit, e)
					}
				}
				if len(fit) == 0 {
					dim = 1 + r.Int64N(1000)
					break
				}
				elem = fit[r.IntN(len(fit))]
				p := row / gcd(row, int64(elem))
				dim = 2*p + r.Int64N(p+1)
				shifted[elem] = true
			default:
				dim = 1 + r.Int64N(1000)
			}
			gotSecs, err := got.ColumnWalkSeconds(dim, elem)
			if err != nil {
				t.Fatalf("spec %+v: ColumnWalkSeconds(%d, %d): %v", spec, dim, elem, err)
			}
			wantSecs, err := columnWalkPerPass(want, dim, elem)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(gotSecs) != math.Float64bits(wantSecs) {
				t.Fatalf("spec %+v: ColumnWalkSeconds(%d, %d) = %v, per-pass reference %v",
					spec, dim, elem, gotSecs, wantSecs)
			}
			if !slices.Equal(got.openRow, want.openRow) {
				t.Fatalf("spec %+v: after ColumnWalkSeconds(%d, %d) open rows %v, reference %v",
					spec, dim, elem, got.openRow, want.openRow)
			}
		}
	}
	for elem := 1; elem <= 16; elem++ {
		if !shifted[elem] {
			t.Errorf("no walk of %d-byte elements crossed two whole-row shifts", elem)
		}
	}
}

// TestColumnWalkEdgeCases checks that ColumnWalkSeconds returns what the
// per-pass reference returns, errors included, for empty and one-element
// arrays, bad element sizes and arrays that overrun the address space at
// the first or at a later pass.
func TestColumnWalkEdgeCases(t *testing.T) {
	cases := []struct {
		dim  int64
		elem int
	}{
		{0, 4}, {-3, 4}, {1, 4}, {1, 0}, {2, 0}, {5, -1},
		{3037000500, 4},      // pass 0 overruns
		{2, math.MaxInt / 2}, // pass 0 fits, pass 1 overruns
	}
	for _, c := range cases {
		got, want := testDRAM(t), testDRAM(t)
		gotSecs, gotErr := got.ColumnWalkSeconds(c.dim, c.elem)
		wantSecs, wantErr := columnWalkPerPass(want, c.dim, c.elem)
		if math.Float64bits(gotSecs) != math.Float64bits(wantSecs) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("ColumnWalkSeconds(%d, %d) = %v, %v; per-pass reference %v, %v",
				c.dim, c.elem, gotSecs, gotErr, wantSecs, wantErr)
		}
		if !slices.Equal(got.openRow, want.openRow) {
			t.Errorf("after ColumnWalkSeconds(%d, %d) open rows %v, reference %v", c.dim, c.elem, got.openRow, want.openRow)
		}
	}
}
