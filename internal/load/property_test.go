package load

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"samrdlb/internal/machine"
)

// Property tests over the paper's equations: the gain/cost arithmetic
// gates every global redistribution, so its algebraic structure is
// worth pinning down beyond spot values.

func qc(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}
}

// randomLoads fills a recorder with random per-proc level-0 loads.
func randomLoads(rng *rand.Rand, sys *machine.System) *Recorder {
	r := NewRecorder(sys, 1)
	for p := 0; p < sys.NumProcs(); p++ {
		r.RecordLevelWork(p, 0, rng.Float64()*100)
	}
	r.SetIntervalTime(1 + rng.Float64()*100)
	return r
}

func TestGainNonNegativeProperty(t *testing.T) {
	sys := machine.WanPair(2, nil)
	f := func(seed int64) bool {
		r := randomLoads(rand.New(rand.NewSource(seed)), sys)
		return r.Gain() >= 0
	}
	if err := quick.Check(f, qc(21)); err != nil {
		t.Error(err)
	}
}

func TestGainBoundedByIntervalProperty(t *testing.T) {
	// Eq. 4 divides by NumGroups·max, so Gain can never exceed
	// T/NumGroups — the "very conservative estimate" the paper claims.
	sys := machine.WanPair(3, nil)
	f := func(seed int64) bool {
		r := randomLoads(rand.New(rand.NewSource(seed)), sys)
		return r.Gain() <= r.IntervalTime()/float64(sys.NumGroups())+1e-12
	}
	if err := quick.Check(f, qc(22)); err != nil {
		t.Error(err)
	}
}

func TestGainScaleInvariantProperty(t *testing.T) {
	// Scaling every load by a constant leaves the gain unchanged
	// (Eq. 4 is a ratio).
	sys := machine.WanPair(2, nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := 0.5 + rng.Float64()*10
		r1 := NewRecorder(sys, 0)
		r2 := NewRecorder(sys, 0)
		r1.SetIntervalTime(50)
		r2.SetIntervalTime(50)
		for p := 0; p < sys.NumProcs(); p++ {
			w := rng.Float64() * 100
			r1.RecordLevelWork(p, 0, w)
			r2.RecordLevelWork(p, 0, w*scale)
		}
		return math.Abs(r1.Gain()-r2.Gain()) < 1e-9
	}
	if err := quick.Check(f, qc(23)); err != nil {
		t.Error(err)
	}
}

func TestGainProportionalToTProperty(t *testing.T) {
	sys := machine.WanPair(2, nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRecorder(sys, 0)
		for p := 0; p < sys.NumProcs(); p++ {
			r.RecordLevelWork(p, 0, rng.Float64()*100)
		}
		r.SetIntervalTime(10)
		g1 := r.Gain()
		r.SetIntervalTime(30)
		g3 := r.Gain()
		return math.Abs(g3-3*g1) < 1e-9*(1+g1)
	}
	if err := quick.Check(f, qc(24)); err != nil {
		t.Error(err)
	}
}

func TestCostLinearProperty(t *testing.T) {
	// Eq. 1 is affine in the transfer size.
	f := func(alpha, beta, w1, w2, delta float64) bool {
		a := math.Abs(math.Mod(alpha, 1))
		b := math.Abs(math.Mod(beta, 1e-3))
		d := math.Abs(math.Mod(delta, 10))
		x, y := math.Abs(math.Mod(w1, 1e9)), math.Abs(math.Mod(w2, 1e9))
		lhs := Cost(a, b, x+y, d)
		rhs := Cost(a, b, x, d) + Cost(a, b, y, d) - Cost(a, b, 0, d)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, qc(25)); err != nil {
		t.Error(err)
	}
}

func TestImbalanceRatioAtLeastOneProperty(t *testing.T) {
	sys := machine.WanPair(2, nil)
	f := func(seed int64) bool {
		r := randomLoads(rand.New(rand.NewSource(seed)), sys)
		return r.ImbalanceRatio() >= 1
	}
	if err := quick.Check(f, qc(26)); err != nil {
		t.Error(err)
	}
}

func TestGroupWorksSumToProcWorksProperty(t *testing.T) {
	// Σ_groups W_group == Σ_procs ProcWork (Eq. 2/3 consistency).
	sys := machine.WanPair(3, nil)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRecorder(sys, 2)
		for l := 0; l <= 2; l++ {
			for k := 0; k < 1<<l; k++ {
				r.RecordIteration(l)
			}
			for p := 0; p < sys.NumProcs(); p++ {
				r.RecordLevelWork(p, l, rng.Float64()*10)
			}
		}
		var byGroup, byProc float64
		for g := 0; g < sys.NumGroups(); g++ {
			byGroup += r.GroupWork(g)
		}
		for p := 0; p < sys.NumProcs(); p++ {
			byProc += r.ProcWork(p)
		}
		return math.Abs(byGroup-byProc) < 1e-9*(1+byProc)
	}
	if err := quick.Check(f, qc(27)); err != nil {
		t.Error(err)
	}
}
