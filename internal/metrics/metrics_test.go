package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDisplacementError(t *testing.T) {
	d := NewDisplacementError(3)
	d.Add(0, 100)
	d.Add(0, 200)
	d.Add(1, 300)
	d.Add(2, 500)
	if got := d.ADE(0); got != 150 {
		t.Fatalf("ADE(0) = %f", got)
	}
	if got := d.ADE(1); got != 300 {
		t.Fatalf("ADE(1) = %f", got)
	}
	if got := d.MeanADE(); math.Abs(got-(150+300+500)/3.0) > 1e-9 {
		t.Fatalf("MeanADE = %f", got)
	}
	if d.Count(0) != 2 || d.Count(2) != 1 {
		t.Fatal("counts wrong")
	}
	if d.Horizons() != 3 {
		t.Fatal("horizons wrong")
	}
}

func TestDisplacementErrorEmptyHorizon(t *testing.T) {
	d := NewDisplacementError(2)
	d.Add(0, 10)
	if d.ADE(1) != 0 {
		t.Fatal("empty horizon must be 0")
	}
	if d.MeanADE() != 10 {
		t.Fatal("mean must skip empty horizons")
	}
}

func TestConfusionMetrics(t *testing.T) {
	// The paper's Table 2, All Events / Linear Kinematic / 2 min row.
	c := Confusion{TP: 203, FP: 3, FN: 34}
	if p := c.Precision(); math.Abs(p-0.985) > 0.01 {
		t.Fatalf("precision %f", p)
	}
	if r := c.Recall(); math.Abs(r-0.857) > 0.01 {
		t.Fatalf("recall %f", r)
	}
	if f := c.F1(); math.Abs(f-0.916) > 0.01 {
		t.Fatalf("f1 %f", f)
	}
	if a := c.Accuracy(); math.Abs(a-float64(203)/240) > 0.01 {
		t.Fatalf("accuracy %f", a)
	}
}

func TestConfusionZeroSafe(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Fatal("zero matrix must yield zero metrics, not NaN")
	}
}

func TestConfusionPropertyBounds(t *testing.T) {
	f := func(tp, fp, fn, tn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), FN: int(fn), TN: int(tn)}
		for _, v := range []float64{c.Precision(), c.Recall(), c.F1(), c.Accuracy()} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMovingAverageWindow(t *testing.T) {
	m := NewMovingAverage(3)
	if m.Add(3) != 3 {
		t.Fatal("first mean")
	}
	if m.Add(6) != 4.5 {
		t.Fatal("second mean")
	}
	if m.Add(9) != 6 {
		t.Fatal("third mean")
	}
	// Window slides: (6+9+12)/3 = 9.
	if got := m.Add(12); got != 9 {
		t.Fatalf("slid mean = %f", got)
	}
	if m.Filled() != 3 {
		t.Fatalf("filled = %d", m.Filled())
	}
}

func TestMovingAverageMatchesNaive(t *testing.T) {
	f := func(values []float64) bool {
		for _, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true
			}
		}
		const window = 5
		m := NewMovingAverage(window)
		for i, v := range values {
			got := m.Add(v)
			lo := i - window + 1
			if lo < 0 {
				lo = 0
			}
			want := 0.0
			for _, x := range values[lo : i+1] {
				want += x
			}
			want /= float64(i + 1 - lo)
			scale := math.Max(1, math.Abs(want))
			if math.Abs(got-want)/scale > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMovingAverageAdd(b *testing.B) {
	m := NewMovingAverage(100)
	for i := 0; i < b.N; i++ {
		m.Add(float64(i))
	}
}
