package prob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniform(t *testing.T) {
	for _, m := range []int{1, 2, 14} {
		d := Uniform(m)
		if err := d.Validate(); err != nil {
			t.Fatalf("Uniform(%d) invalid: %v", m, err)
		}
		if d[0] != 1/float64(m) {
			t.Errorf("Uniform(%d)[0] = %g", m, d[0])
		}
	}
}

func TestPointMass(t *testing.T) {
	d := PointMass(5, 3)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d[3] != 1 {
		t.Errorf("mass not at index 3: %v", d)
	}
}

func TestFromCounts(t *testing.T) {
	d := FromCounts([]int{1, 3, 0})
	want := Dist{0.25, 0.75, 0}
	if !Equal(d, want, 1e-12) {
		t.Errorf("FromCounts = %v, want %v", d, want)
	}
}

func TestFromCountsZeroTotal(t *testing.T) {
	d := FromCounts([]int{0, 0, 0, 0})
	if !Equal(d, Uniform(4), 1e-12) {
		t.Errorf("zero counts should give uniform, got %v", d)
	}
}

func TestNormalize(t *testing.T) {
	d := Dist{2, 6}
	d.Normalize()
	if !Equal(d, Dist{0.25, 0.75}, 1e-12) {
		t.Errorf("Normalize = %v", d)
	}
}

func TestNormalizeZero(t *testing.T) {
	d := Dist{0, 0, 0}
	d.Normalize()
	if !Equal(d, Uniform(3), 1e-12) {
		t.Errorf("Normalize of zero dist = %v, want uniform", d)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		d    Dist
	}{
		{"empty", Dist{}},
		{"negative", Dist{-0.5, 1.5}},
		{"unnormalized", Dist{0.2, 0.2}},
		{"nan", Dist{math.NaN(), 1}},
	}
	for _, c := range cases {
		if err := c.d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %v", c.name, c.d)
		}
	}
}

func TestMax(t *testing.T) {
	v, i := (Dist{0.1, 0.7, 0.2}).Max()
	if v != 0.7 || i != 1 {
		t.Errorf("Max = (%g, %d)", v, i)
	}
}

// Mix returns the convex combination a*p + (1-a)*q.
func Mix(p, q Dist, a float64) Dist {
	if len(p) != len(q) {
		panic("prob: mixing distributions over different domains")
	}
	d := make(Dist, len(p))
	for i := range d {
		d[i] = a*p[i] + (1-a)*q[i]
	}
	return d
}

// Average returns the midpoint distribution (p+q)/2.
func Average(p, q Dist) Dist { return Mix(p, q, 0.5) }

func TestMixAverage(t *testing.T) {
	p := Dist{1, 0}
	q := Dist{0, 1}
	if got := Average(p, q); !Equal(got, Dist{0.5, 0.5}, 1e-12) {
		t.Errorf("Average = %v", got)
	}
	if got := Mix(p, q, 0.25); !Equal(got, Dist{0.25, 0.75}, 1e-12) {
		t.Errorf("Mix = %v", got)
	}
}

func TestTotalVariation(t *testing.T) {
	if tv := TotalVariation(Dist{1, 0}, Dist{0, 1}); tv != 1 {
		t.Errorf("TV of disjoint = %g, want 1", tv)
	}
	if tv := TotalVariation(Dist{0.5, 0.5}, Dist{0.5, 0.5}); tv != 0 {
		t.Errorf("TV of equal = %g, want 0", tv)
	}
}

func TestDomainMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Mix":            func() { Mix(Dist{1}, Dist{0.5, 0.5}, 0.5) },
		"TotalVariation": func() { TotalVariation(New(1), New(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on domain mismatch", name)
				}
			}()
			f()
		}()
	}
}

// randomDist builds a random normalized distribution for property tests.
func randomDist(rng *rand.Rand, m int) Dist {
	d := make(Dist, m)
	for i := range d {
		d[i] = rng.Float64()
	}
	return d.Normalize()
}

func TestNormalizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDist(r, 1+rng.Intn(20))
		return d.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTotalVariationBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(20)
		p, q := randomDist(r, m), randomDist(r, m)
		tv := TotalVariation(p, q)
		return tv >= 0 && tv <= 1+1e-12 && TotalVariation(p, p) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
