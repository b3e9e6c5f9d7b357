// Package machine describes the compute side of a distributed system
// in the paper's terms: a "group" is a set of processors with the same
// performance sharing an intra-connected network (a parallel machine
// or cluster); a distributed system is two or more groups joined by
// (possibly shared, possibly wide-area) inter-group links.
package machine

import (
	"fmt"
	"strings"

	"samrdlb/internal/netsim"
)

// Processor is one CPU of the distributed system.
type Processor struct {
	// ID is the global processor index.
	ID int
	// Group is the index of the group the processor belongs to.
	Group int
	// Perf is the relative performance weight the DLB scheme assigns:
	// a processor with Perf 2 advances cells twice as fast as one with
	// Perf 1. All processors in a group share the same Perf (the
	// paper's groups are homogeneous).
	Perf float64
}

// Group is a homogeneous set of processors sharing an internal
// network.
type Group struct {
	// ID is the group index.
	ID int
	// Name labels the group in reports ("ANL", "NCSA", ...).
	Name string
	// Procs lists the global IDs of the group's processors.
	Procs []int
}

// System is a distributed system: groups of processors plus the
// network fabric joining them.
type System struct {
	Procs  []Processor
	Groups []Group
	Net    *netsim.Fabric
	// FlopsPerSecond converts kernel flop counts into seconds for a
	// Perf=1 processor (the virtual-time compute model).
	FlopsPerSecond float64

	// health[p] is the runtime speed multiplier fault injection
	// applies to processor p: 1 healthy, (0, 1) slowed, 0 failed.
	// nil means every processor is healthy.
	health []float64
}

// GroupSpec describes one group for the builder.
type GroupSpec struct {
	Name  string
	Procs int
	Perf  float64
}

// New assembles a system from group specifications and a fabric. The
// fabric must have been built for len(specs) groups.
func New(specs []GroupSpec, net *netsim.Fabric, flopsPerSecond float64) *System {
	if net != nil && net.NumGroups() != len(specs) {
		panic(fmt.Sprintf("machine.New: fabric has %d groups, specs have %d", net.NumGroups(), len(specs)))
	}
	if flopsPerSecond <= 0 {
		panic("machine.New: flopsPerSecond must be positive")
	}
	s := &System{Net: net, FlopsPerSecond: flopsPerSecond}
	id := 0
	for gi, spec := range specs {
		if spec.Procs <= 0 {
			panic(fmt.Sprintf("machine.New: group %d has no processors", gi))
		}
		perf := spec.Perf
		if perf <= 0 {
			perf = 1
		}
		g := Group{ID: gi, Name: spec.Name}
		for p := 0; p < spec.Procs; p++ {
			s.Procs = append(s.Procs, Processor{ID: id, Group: gi, Perf: perf})
			g.Procs = append(g.Procs, id)
			id++
		}
		s.Groups = append(s.Groups, g)
	}
	return s
}

// NumProcs returns the total processor count.
func (s *System) NumProcs() int { return len(s.Procs) }

// NumGroups returns the group count.
func (s *System) NumGroups() int { return len(s.Groups) }

// GroupOf returns the group index owning processor p.
func (s *System) GroupOf(p int) int { return s.Procs[p].Group }

// ProcsInGroup returns the processor IDs of group g.
func (s *System) ProcsInGroup(g int) []int { return s.Groups[g].Procs }

// Perf returns processor p's relative performance weight.
func (s *System) Perf(p int) float64 { return s.Procs[p].Perf }

// GroupPerf returns the summed performance weight of group g — the
// n_A × p_A term in the paper's weight-proportional partitioning.
func (s *System) GroupPerf(g int) float64 {
	var sum float64
	for _, p := range s.Groups[g].Procs {
		sum += s.Procs[p].Perf
	}
	return sum
}

// TotalPerf returns the summed performance weight of all processors —
// the P in the paper's efficiency definition (relative to a Perf=1
// sequential reference).
func (s *System) TotalPerf() float64 {
	var sum float64
	for _, p := range s.Procs {
		sum += p.Perf
	}
	return sum
}

// SetHealth records processor p's runtime speed multiplier: 1 fully
// healthy, a fraction in (0, 1) for an injected slowdown, 0 for a
// failed processor. The DLB's static Perf weights are untouched —
// health is what actually happened, Perf is what the scheme believes.
func (s *System) SetHealth(p int, factor float64) {
	if factor < 0 || factor > 1 {
		panic(fmt.Sprintf("machine.SetHealth: factor %g out of [0, 1]", factor))
	}
	if s.health == nil {
		s.health = make([]float64, len(s.Procs))
		for i := range s.health {
			s.health[i] = 1
		}
	}
	s.health[p] = factor
}

// HealthOf returns processor p's current health factor (1 when no
// fault has ever been recorded).
func (s *System) HealthOf(p int) float64 {
	if s.health == nil {
		return 1
	}
	return s.health[p]
}

// Alive reports whether processor p has not failed.
func (s *System) Alive(p int) bool { return s.HealthOf(p) > 0 }

// EffectivePerf returns the processor's real current speed: the
// static Perf weight times the health factor.
func (s *System) EffectivePerf(p int) float64 {
	return s.Procs[p].Perf * s.HealthOf(p)
}

// AliveProcs returns the IDs of every non-failed processor, ascending.
func (s *System) AliveProcs() []int {
	out := make([]int, 0, len(s.Procs))
	for p := range s.Procs {
		if s.Alive(p) {
			out = append(out, p)
		}
	}
	return out
}

// AliveInGroup returns the non-failed processors of group g, ascending.
func (s *System) AliveInGroup(g int) []int {
	var out []int
	for _, p := range s.Groups[g].Procs {
		if s.Alive(p) {
			out = append(out, p)
		}
	}
	return out
}

// NumAlive returns the count of non-failed processors.
func (s *System) NumAlive() int {
	if s.health == nil {
		return len(s.Procs)
	}
	n := 0
	for p := range s.Procs {
		if s.Alive(p) {
			n++
		}
	}
	return n
}

// SameGroup reports whether processors a and b share a group (their
// communication is "local" in the paper's terminology).
func (s *System) SameGroup(a, b int) bool {
	return s.Procs[a].Group == s.Procs[b].Group
}

// LinkBetween returns the link used by a message from processor a to
// processor b; the error reports a missing route.
func (s *System) LinkBetween(a, b int) (*netsim.Link, error) {
	return s.Net.Between(s.Procs[a].Group, s.Procs[b].Group)
}

func (s *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "system{%d groups, %d procs:", s.NumGroups(), s.NumProcs())
	for _, g := range s.Groups {
		fmt.Fprintf(&b, " %s×%d", g.Name, len(g.Procs))
	}
	b.WriteString("}")
	return b.String()
}

// DefaultFlopsPerSecond is the nominal speed of a Perf=1 processor.
// A 250 MHz R10000 peaks at 500 Mflops but real SAMR hydro codes
// sustain an order of magnitude less; 50 Mflops puts virtual times in
// the same regime as the paper's plots.
const DefaultFlopsPerSecond = 50e6

// Origin2000 returns a single parallel machine: one group of n
// processors joined by the Origin's internal interconnect — the
// paper's "parallel system" configuration.
func Origin2000(name string, n int) *System {
	fab := netsim.NewFabric(1)
	fab.SetIntra(0, netsim.OriginInterconnect())
	return New([]GroupSpec{{Name: name, Procs: n, Perf: 1}}, fab, DefaultFlopsPerSecond)
}

// LanPair returns two n-processor machines joined by a shared Gigabit
// Ethernet LAN — the paper's ANL+ANL system used for AMR64.
func LanPair(n int, traffic netsim.TrafficModel) *System {
	fab := netsim.NewFabric(2)
	fab.SetIntra(0, netsim.OriginInterconnect())
	fab.SetIntra(1, netsim.OriginInterconnect())
	fab.SetInter(0, 1, netsim.GigabitLAN(traffic))
	return New([]GroupSpec{
		{Name: "ANL-a", Procs: n, Perf: 1},
		{Name: "ANL-b", Procs: n, Perf: 1},
	}, fab, DefaultFlopsPerSecond)
}

// WanPair returns two n-processor machines joined by the shared MREN
// OC-3 WAN — the paper's ANL+NCSA system used for ShockPool3D.
func WanPair(n int, traffic netsim.TrafficModel) *System {
	fab := netsim.NewFabric(2)
	fab.SetIntra(0, netsim.OriginInterconnect())
	fab.SetIntra(1, netsim.OriginInterconnect())
	fab.SetInter(0, 1, netsim.MrenWAN(traffic))
	return New([]GroupSpec{
		{Name: "ANL", Procs: n, Perf: 1},
		{Name: "NCSA", Procs: n, Perf: 1},
	}, fab, DefaultFlopsPerSecond)
}

// Heterogeneous returns a two-group system whose second group runs at
// the given relative speed — the processor-heterogeneity case the
// paper's scheme supports but could not evaluate for lack of testbeds.
func Heterogeneous(nA, nB int, perfB float64, wan netsim.TrafficModel) *System {
	fab := netsim.NewFabric(2)
	fab.SetIntra(0, netsim.OriginInterconnect())
	fab.SetIntra(1, netsim.OriginInterconnect())
	fab.SetInter(0, 1, netsim.MrenWAN(wan))
	return New([]GroupSpec{
		{Name: "fast", Procs: nA, Perf: 1},
		{Name: "slow", Procs: nB, Perf: perfB},
	}, fab, DefaultFlopsPerSecond)
}

// MultiSite returns a distributed system of len(ns) homogeneous
// groups, each pair joined by its own shared WAN link — the "more
// heterogeneous machines" extension the paper lists as future work.
// traffic, when non-nil, supplies the background model per group pair.
func MultiSite(ns []int, traffic func(a, b int) netsim.TrafficModel) *System {
	if len(ns) < 2 {
		panic("machine.MultiSite: need at least two sites")
	}
	fab := netsim.NewFabric(len(ns))
	specs := make([]GroupSpec, len(ns))
	for i, n := range ns {
		fab.SetIntra(i, netsim.OriginInterconnect())
		specs[i] = GroupSpec{Name: fmt.Sprintf("site-%d", i), Procs: n, Perf: 1}
	}
	for a := 0; a < len(ns); a++ {
		for b := a + 1; b < len(ns); b++ {
			var tm netsim.TrafficModel
			if traffic != nil {
				tm = traffic(a, b)
			}
			fab.SetInter(a, b, netsim.MrenWAN(tm))
		}
	}
	return New(specs, fab, DefaultFlopsPerSecond)
}
