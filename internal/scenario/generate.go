package scenario

import (
	"encoding/binary"
	"math/rand"

	"samrdlb/internal/dlb"
	"samrdlb/internal/fault"
	"samrdlb/internal/machine"
	"samrdlb/internal/workload"
)

// Generate derives a runnable scenario deterministically from a seed:
// the same seed always yields the same scenario, so a soak failure is
// reproducible from its seed alone. Every output has already passed
// Normalize.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{Seed: seed, ResumeCut: -1}

	ngroups := 1 + rng.Intn(3)
	for i := 0; i < ngroups; i++ {
		perf := 1.0
		if rng.Float64() < 0.4 {
			perf = []float64{0.5, 0.75}[rng.Intn(2)]
		}
		s.Groups = append(s.Groups, GroupDef{Procs: 1 + rng.Intn(4), Perf: perf})
	}

	s.Dataset = []string{
		"ShockPool3D", "ShockPool3D", "AMR64", "SedovBlast", "blob", "uniform",
	}[rng.Intn(6)]
	s.DomainN = domainSizes[rng.Intn(len(domainSizes))]
	s.MaxLevel = 1
	if rng.Float64() < 0.3 {
		s.MaxLevel = 2
	}
	// One draw selects the policy, weighted toward the paper scheme
	// (it exercises the gate and group machinery the other policies
	// delegate to) with every registered policy represented.
	switch r := rng.Float64(); {
	case r < 0.52:
		s.Scheme = "distributed"
	case r < 0.66:
		s.Scheme = "parallel"
	case r < 0.74:
		s.Scheme = "sfc"
	case r < 0.81:
		s.Scheme = "hilbert-sfc"
	case r < 0.88:
		s.Scheme = "diffusion"
	case r < 0.94:
		s.Scheme = "diffusion-sos"
	default:
		s.Scheme = "knapsack"
	}
	s.Wan = ngroups >= 2 && rng.Float64() < 0.5
	if rng.Float64() < 0.3 {
		s.Traffic = 1 + rng.Int63n(1<<20)
	}
	s.Steps = 3 + rng.Intn(6)
	if rng.Float64() < 0.3 {
		s.Gamma = 0.5 + 3.5*rng.Float64()
	}
	if rng.Float64() < 0.3 {
		s.Eps = 0.01 + 0.19*rng.Float64()
	}
	s.RegridInterval = 1 + rng.Intn(3)
	s.GridsPerProc = 1 + rng.Intn(3)
	s.WithData = s.DomainN <= 12 && rng.Float64() < 0.2
	s.UseForecast = rng.Float64() < 0.3
	s.CkptInterval = 1 + rng.Intn(3)
	if rng.Float64() < 0.3 && s.Steps >= 2 {
		s.ResumeCut = s.CkptInterval + rng.Intn(s.Steps)
	}

	if rng.Float64() < 0.5 {
		s.FaultSeed = rng.Int63()
		est := s.estRunTime()
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			s.Faults = append(s.Faults, randomEvent(rng, est, len(s.Groups), s.NumProcs()))
		}
	}

	s.Normalize()
	return s
}

// estRunTime crudely estimates the run's virtual duration so fault
// windows land somewhere inside it. Precision is irrelevant — a
// window that misses the run is a no-op, not an error.
func (s *Scenario) estRunTime() float64 {
	cells := float64(s.DomainN * s.DomainN * s.DomainN)
	flops := workload.FlopsPerCell(s.Driver())
	var perf float64
	for _, g := range s.Groups {
		perf += float64(g.Procs) * g.Perf
	}
	if perf <= 0 {
		perf = 1
	}
	// ~3× for refined levels and subcycling.
	return float64(s.Steps) * cells * flops * 3 / (perf * machine.DefaultFlopsPerSecond)
}

// randomEvent draws one valid fault event with a window inside
// [0, est]. Kind-specific parameters respect fault.Event validation.
func randomEvent(rng *rand.Rand, est float64, ngroups, nprocs int) fault.Event {
	start := rng.Float64() * est * 0.8
	end := start + (0.05+0.45*rng.Float64())*est
	a, b := 0, 1
	if ngroups >= 2 {
		a = rng.Intn(ngroups)
		b = rng.Intn(ngroups)
		for b == a {
			b = rng.Intn(ngroups)
		}
	}
	// The index fields a kind does not use stay -1, as in a parsed
	// script, so a generated scenario survives Encode → Parse exactly.
	e := fault.Event{Start: start, End: end, A: -1, B: -1, Group: -1, Proc: -1}
	switch rng.Intn(8) {
	case 0:
		e.Kind, e.A, e.B = fault.LinkOutage, a, b
	case 1:
		e.Kind, e.A, e.B, e.Factor = fault.LinkDegrade, a, b, 1.5+6.5*rng.Float64()
	case 2:
		e.Kind, e.A, e.B, e.Prob = fault.ProbeLoss, a, b, 0.3+0.7*rng.Float64()
	case 3:
		e.Kind, e.Proc = fault.ProcSlowdown, rng.Intn(nprocs)
		e.Factor = 0.3 + 0.6*rng.Float64()
	case 4:
		e.Kind, e.Group = fault.GroupDisconnect, rng.Intn(ngroups)
	case 5:
		// Explicit revival: a no-op unless a failure struck the same
		// processor earlier, which the generator leaves to chance.
		e.Kind, e.End, e.Proc = fault.ProcRecovery, 0, rng.Intn(nprocs)
	case 6:
		e.Kind, e.End, e.Group = fault.GroupReconnect, 0, rng.Intn(ngroups)
	default:
		// Windowed failure: a bounded outage — the processor is down in
		// [start, end) and rejoins at end.
		e.Kind, e.Proc = fault.ProcFailure, rng.Intn(nprocs)
	}
	return e
}

// GenerateRejoin derives a rejoin-heavy scenario deterministically:
// the run envelope comes from Generate, but the fault schedule is
// replaced with one weighted toward elastic-membership churn — bounded
// processor outages, explicit failure→recovery pairs, and group
// disconnect→reconnect pairs — so soaks exercise the rejoin and
// catch-up paths on every seed.
func GenerateRejoin(seed int64) Scenario {
	s := Generate(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x52454a4f494e)) // "REJOIN"
	nprocs, ngroups := s.NumProcs(), len(s.Groups)
	est := s.estRunTime()
	s.FaultSeed = 1 + rng.Int63()
	s.Faults = nil
	s.ResumeCut = -1
	if rng.Float64() < 0.4 && s.Steps >= 2 {
		s.ResumeCut = s.CkptInterval + rng.Intn(s.Steps)
	}
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		p := rng.Intn(nprocs)
		t0 := rng.Float64() * est * 0.5
		t1 := t0 + (0.1+0.3*rng.Float64())*est
		if rng.Float64() < 0.5 {
			// Bounded outage: down in [t0, t1), rejoining at t1.
			s.Faults = append(s.Faults, fault.Event{Kind: fault.ProcFailure, Start: t0, End: t1, Proc: p})
		} else {
			// Permanent failure revived by an explicit recovery.
			s.Faults = append(s.Faults, fault.Event{Kind: fault.ProcFailure, Start: t0, Proc: p})
			s.Faults = append(s.Faults, fault.Event{Kind: fault.ProcRecovery, Start: t1, Proc: p})
		}
	}
	if ngroups >= 2 && rng.Float64() < 0.5 {
		g := rng.Intn(ngroups)
		t0 := rng.Float64() * est * 0.5
		t1 := t0 + (0.1+0.3*rng.Float64())*est
		s.Faults = append(s.Faults, fault.Event{Kind: fault.GroupDisconnect, Start: t0, End: t1, Group: g})
		s.Faults = append(s.Faults, fault.Event{Kind: fault.GroupReconnect, Start: t1 + 0.05*est, Group: g})
	}
	if rng.Float64() < 0.3 {
		s.Quorum = 1 + rng.Intn(2)
	}
	s.Normalize()
	return s
}

// FromBytes maps arbitrary fuzz input onto a scenario: the first 8
// bytes seed Generate, the rest perturb individual fields. Fuzz
// scenarios are clamped smaller than soak scenarios (tiny domains,
// few steps) so the fuzzer gets throughput; Normalize re-validates
// whatever the perturbations produced.
func FromBytes(data []byte) Scenario {
	var seed int64
	if len(data) >= 8 {
		seed = int64(binary.LittleEndian.Uint64(data[:8]))
		data = data[8:]
	}
	s := Generate(seed)
	for i, b := range data {
		switch b % 14 {
		case 0:
			s.Steps = 1 + int(b/11)%4
		case 1:
			s.MaxLevel = 1 + int(b)%2
		case 2:
			s.RegridInterval = 1 + int(b)%4
		case 3:
			s.GridsPerProc = 1 + int(b)%4
		case 4:
			s.Gamma = float64(b) / 32
		case 5:
			s.Eps = float64(b) / 512
		case 6:
			s.CkptInterval = 1 + int(b)%4
		case 7:
			if s.ResumeCut >= 0 {
				s.ResumeCut = int(b) % (s.Steps + 1)
			}
		case 8:
			if len(s.Groups) > 0 {
				s.Groups[i%len(s.Groups)].Procs = 1 + int(b)%4
			}
		case 9:
			s.UseForecast = b%2 == 0
		case 10:
			if len(s.Faults) > 0 {
				s.Faults[i%len(s.Faults)].Start = float64(b) / 255 * s.estRunTime()
			}
		case 11:
			// Fail → rejoin → fail-again on one processor: the schedule
			// that stresses re-admission bookkeeping hardest. Normalize
			// drops it when the system is too small.
			est := s.estRunTime()
			p := int(b) % s.NumProcs()
			s.FaultSeed = 1 + int64(b)
			s.Faults = []fault.Event{
				{Kind: fault.ProcFailure, Start: 0.1 * est, End: 0.35 * est, Proc: p},
				{Kind: fault.ProcFailure, Start: 0.55 * est, End: 0.8 * est, Proc: p},
			}
		case 12:
			// Chaos kill point: a supervised replay SIGKILLs this group's
			// worker after the scripted step. Inert for the in-process
			// executor, but the encode/normalize round-trip and the
			// schedule validation still get exercised.
			g := int(b) % max(1, len(s.Groups))
			s.Faults = append(s.Faults, fault.Event{
				Kind:  fault.WorkerKill,
				Start: float64(int(b) % max(1, s.Steps)),
				Group: g, A: -1, B: -1, Proc: -1,
			})
		case 13:
			// Policy override: the fuzzer explores every registered
			// balancer policy for free (the quotient indexes the sorted
			// registry).
			names := dlb.PolicyNames()
			s.Scheme = names[int(b/14)%len(names)]
		}
	}
	// Keep fuzz executions cheap.
	if s.DomainN > 12 {
		s.DomainN = 12
	}
	if s.Steps > 4 {
		s.Steps = 4
	}
	s.WithData = false
	s.Normalize()
	return s
}
