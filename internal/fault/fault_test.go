package fault

import (
	"math"
	"sync"
	"testing"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	v := []float64{1, 2, 3}
	if in.CorruptSpMV(v) || in.CorruptVector(v) || in.DropSend() || in.FailAllreduce() {
		t.Fatal("nil injector injected a fault")
	}
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatal("nil injector mutated data")
	}
	if c := in.Counts(); c.Total() != 0 {
		t.Fatalf("nil injector counts = %+v", c)
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := New(1, Config{})
	v := []float64{1, 2, 3}
	for i := 0; i < 1000; i++ {
		if in.CorruptSpMV(v) || in.DropSend() || in.FailAllreduce() {
			t.Fatal("zero config injected a fault")
		}
	}
	if c := in.Counts(); c.Total() != 0 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestSeedDeterminism(t *testing.T) {
	cfg := Config{SpMVCorruptProb: 0.3, DropSendProb: 0.2}
	run := func(seed uint64) ([]float64, Counts) {
		in := New(seed, cfg)
		v := make([]float64, 10)
		for i := range v {
			v[i] = float64(i)
		}
		for i := 0; i < 50; i++ {
			in.CorruptSpMV(v)
			in.DropSend()
		}
		return v, in.Counts()
	}
	v1, c1 := run(42)
	v2, c2 := run(42)
	if c1 != c2 {
		t.Fatalf("same seed, different counts: %+v vs %+v", c1, c2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("same seed, different corruption at %d: %v vs %v", i, v1[i], v2[i])
		}
	}
	v3, c3 := run(43)
	if c1 == c3 {
		same := true
		for i := range v1 {
			if v1[i] != v3[i] {
				same = false
			}
		}
		if same {
			t.Fatal("different seeds produced identical fault streams")
		}
	}
}

func TestCorruptionRateAndMagnitude(t *testing.T) {
	in := New(7, Config{SpMVCorruptProb: 0.5, CorruptMagnitude: 100})
	n, trials := 0, 2000
	for i := 0; i < trials; i++ {
		v := []float64{1}
		if in.CorruptSpMV(v) {
			n++
			if d := math.Abs(v[0] - 1); d < 100 {
				t.Fatalf("perturbation %v smaller than magnitude", d)
			}
		} else if v[0] != 1 {
			t.Fatal("value changed without a reported corruption")
		}
	}
	if n < trials/3 || n > 2*trials/3 {
		t.Fatalf("injected %d/%d corruptions at prob 0.5", n, trials)
	}
	if c := in.Counts(); c.SpMVCorruptions != n {
		t.Fatalf("counts %d != observed %d", c.SpMVCorruptions, n)
	}
}

func TestBitFlip(t *testing.T) {
	in := New(3, Config{VectorCorruptProb: 1, BitFlip: true, Bit: 54})
	v := []float64{8}
	if !in.CorruptVector(v) {
		t.Fatal("prob 1 did not corrupt")
	}
	// Flipping exponent bit 2 (value bit 54) multiplies by 2^±4.
	if v[0] != 8*16 && v[0] != 8.0/16 {
		t.Fatalf("bit-54 flip of 8 gave %v", v[0])
	}
}

func TestConcurrentDrawsAreRaceFree(t *testing.T) {
	in := New(9, Config{DropSendProb: 0.5, AllreduceFailProb: 0.5})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in.DropSend()
				in.FailAllreduce()
			}
		}()
	}
	wg.Wait()
	c := in.Counts()
	if c.DroppedSends == 0 || c.FailedAllreduces == 0 {
		t.Fatalf("no faults under concurrency: %+v", c)
	}
	if in.String() == "" {
		t.Fatal("empty String")
	}
}
