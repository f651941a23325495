package kernels

import "testing"

func TestSmokeModules(t *testing.T) {
	for _, s := range []Spec{DefaultSOR(), DefaultHotspot(), DefaultLavaMD()} {
		m, err := s.Module()
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		d := elaborate(t, m)
		t.Logf("%s ok %v lanes=%d", s.Name(), d.Config(), d.Lanes())
	}
	s4 := SORSpec{IM: 15, JM: 10, KM: 16, Lanes: 4}
	m, err := s4.Module()
	if err != nil {
		t.Fatalf("sor4: %v", err)
	}
	if n := elaborate(t, m).Lanes(); n != 4 {
		t.Errorf("sor4 lanes = %d", n)
	}
}
