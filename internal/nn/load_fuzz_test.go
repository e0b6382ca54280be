package nn

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// FuzzLoad hardens the model decoder against arbitrary file bytes: it
// must never panic, never allocate by a size the input does not carry
// (a tiny gob claiming Hidden: 1<<40 used to end in an unrecoverable
// out-of-memory), and whatever it accepts must be a usable model that
// round-trips through Save.
func FuzzLoad(f *testing.F) {
	m, err := NewSeqRegressor(Config{InputDim: 3, Hidden: 5, OutputDim: 4, Bidirectional: true, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := m.Save(&valid); err != nil {
		f.Fatal(err)
	}
	good := valid.Bytes()
	f.Add(good)
	for _, n := range []int{0, 1, 16, 64, len(good) / 2, len(good) - 8, len(good) - 1} {
		f.Add(good[:n])
	}
	for _, cfg := range []Config{
		{InputDim: 3, Hidden: 1 << 40, OutputDim: 12, Bidirectional: true},
		{InputDim: 1 << 62, Hidden: 1 << 62, OutputDim: 1},
		{InputDim: 1, Hidden: 1 << 32, OutputDim: 1 << 32},
	} {
		var hostile bytes.Buffer
		if err := gob.NewEncoder(&hostile).Encode(snapshot{Cfg: cfg}); err != nil {
			f.Fatal(err)
		}
		f.Add(hostile.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&out)
		if err != nil {
			t.Fatalf("accepted model does not reload: %v", err)
		}
		if again.Config() != m.Config() {
			t.Fatalf("config changed on reload: %+v vs %+v", again.Config(), m.Config())
		}
		seq := [][]float64{make([]float64, m.Config().InputDim)}
		if got := m.Compile().Predict(seq); len(got) != m.Config().OutputDim {
			t.Fatalf("compiled model returned %d outputs, want %d", len(got), m.Config().OutputDim)
		}
	})
}
