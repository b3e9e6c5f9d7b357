package netsim

import (
	"fmt"
	"sort"
)

// FaultModel injects failures and degradation into a link. The
// scripted implementation lives in package fault; the interface is
// satisfied structurally so neither package imports the other.
type FaultModel interface {
	// Down reports whether the link is unusable at time t.
	Down(t float64) bool
	// Degrade returns a multiplier (≥1) on the effective β at time t.
	Degrade(t float64) float64
	// DropProbe reports (and consumes) whether the next probe message
	// at time t is lost.
	DropProbe(t float64) bool
}

// Link is a network connection with the paper's conventional model
// Tcomm = α + β·L, where α is the one-way latency (seconds), β the
// transfer cost (seconds per byte, the inverse bandwidth), and L the
// message size in bytes. A shared link's effective β grows when
// background traffic consumes part of the bandwidth.
type Link struct {
	// Name labels the link in traces ("ANL-local", "MREN", ...).
	Name string
	// Alpha is the latency in seconds.
	Alpha float64
	// Beta is the nominal transfer cost in seconds per byte.
	Beta float64
	// Traffic is the background load model; nil means dedicated.
	Traffic TrafficModel
	// Fault, when non-nil, injects outages, degradation and probe loss
	// (see package fault). nil means the link never fails.
	Fault FaultModel
}

// NewLink builds a link from human-friendly units: latency in
// seconds, bandwidth in bytes per second.
func NewLink(name string, latency, bandwidth float64, traffic TrafficModel) *Link {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("netsim.NewLink %s: bandwidth must be positive", name))
	}
	return &Link{Name: name, Alpha: latency, Beta: 1 / bandwidth, Traffic: traffic}
}

// LoadAt returns the background load fraction at time t.
func (l *Link) LoadAt(t float64) float64 {
	if l.Traffic == nil {
		return 0
	}
	return clampLoad(l.Traffic.Load(t))
}

// Available reports whether the link can carry traffic at time t.
func (l *Link) Available(t float64) bool {
	return l.Fault == nil || !l.Fault.Down(t)
}

// EffectiveBeta returns the effective transfer cost at time t: the
// nominal β divided by the free fraction of the bandwidth, further
// multiplied by any injected degradation.
func (l *Link) EffectiveBeta(t float64) float64 {
	b := l.Beta / (1 - l.LoadAt(t))
	if l.Fault != nil {
		b *= l.Fault.Degrade(t)
	}
	return b
}

// TransferTime returns the time to move `bytes` bytes starting at
// time `now`: Tcomm = α + β_eff(now)·L. Zero-byte transfers still pay
// the latency (a message must cross the link). Availability is the
// caller's concern (see Available); a down link has no finite
// transfer time.
func (l *Link) TransferTime(now, bytes float64) float64 {
	if bytes < 0 {
		panic("netsim.TransferTime: negative size")
	}
	return l.Alpha + l.EffectiveBeta(now)*bytes
}

// Probe implements the paper's runtime network measurement: "the
// scheme sends two messages between groups, and calculates the network
// performance parameters α and β" (Section 4.2). Two messages of
// different sizes are timed over the link; solving the two linear
// equations yields the current estimates. The returned probeTime is
// the wall time the probe itself consumed (charged to DLB overhead).
// Probe is fault-blind: it assumes both messages arrive. TryProbe is
// the fault-aware variant.
func (l *Link) Probe(now float64) (alphaHat, betaHat, probeTime float64) {
	const l1, l2 = 1 << 10, 1 << 16 // 1 KiB and 64 KiB probes: cheap by design
	t1 := l.TransferTime(now, l1)
	t2 := l.TransferTime(now+t1, l2)
	betaHat = (t2 - t1) / (l2 - l1)
	alphaHat = t1 - betaHat*l1
	return alphaHat, betaHat, t1 + t2
}

// TryProbe attempts one two-message probe under the link's fault
// model. It fails when the link is down at either send time or when
// the fault layer drops a probe message; probeTime is then zero (the
// retry schedule decides how much wall time the failed attempt cost —
// a timeout is policy, not physics).
func (l *Link) TryProbe(now float64) (alphaHat, betaHat, probeTime float64, err error) {
	const l1, l2 = 1 << 10, 1 << 16
	if !l.Available(now) {
		return 0, 0, 0, fmt.Errorf("netsim: link %s down at t=%.3f", l.Name, now)
	}
	if l.Fault != nil && l.Fault.DropProbe(now) {
		return 0, 0, 0, fmt.Errorf("netsim: link %s lost probe message 1 at t=%.3f", l.Name, now)
	}
	t1 := l.TransferTime(now, l1)
	if !l.Available(now + t1) {
		return 0, 0, 0, fmt.Errorf("netsim: link %s went down mid-probe at t=%.3f", l.Name, now+t1)
	}
	if l.Fault != nil && l.Fault.DropProbe(now+t1) {
		return 0, 0, 0, fmt.Errorf("netsim: link %s lost probe message 2 at t=%.3f", l.Name, now+t1)
	}
	t2 := l.TransferTime(now+t1, l2)
	betaHat = (t2 - t1) / (l2 - l1)
	alphaHat = t1 - betaHat*l1
	return alphaHat, betaHat, t1 + t2, nil
}

// The probe retry schedule: a failed attempt costs probeTimeout seconds
// (the sender waits that long before declaring loss), and the pause
// before the next attempt doubles from probeBackoff up to
// probeMaxBackoff.
const (
	probeAttempts   = 3
	probeTimeout    = 0.25
	probeBackoff    = 0.1
	probeMaxBackoff = 2.0
)

// ProbeWithRetry runs TryProbe under the retry schedule: bounded
// attempts with exponential backoff, every failed attempt charged its
// timeout. elapsed is the total wall time consumed (timeouts + backoffs
// +, on success, the successful probe); retryTime is the part wasted on
// failures — the share the DLB charges to Eq. 1's δ overhead term.
// The schedule is deterministic: with a seeded fault model the same
// call sequence yields the same attempts, timing and outcome.
func (l *Link) ProbeWithRetry(now float64) (alphaHat, betaHat, elapsed, retryTime float64, attempts int, err error) {
	backoff := probeBackoff
	for attempts = 1; attempts <= probeAttempts; attempts++ {
		a, b, pt, perr := l.TryProbe(now + elapsed)
		if perr == nil {
			return a, b, elapsed + pt, retryTime, attempts, nil
		}
		err = perr
		elapsed += probeTimeout
		retryTime += probeTimeout
		if attempts < probeAttempts {
			if backoff > probeMaxBackoff {
				backoff = probeMaxBackoff
			}
			elapsed += backoff
			retryTime += backoff
			backoff *= 2
		}
	}
	return 0, 0, elapsed, retryTime, probeAttempts,
		fmt.Errorf("netsim: probe of %s failed after %d attempts: %w", l.Name, probeAttempts, err)
}

// Fabric is the interconnect of a distributed system: one intra-group
// link per group and one inter-group link per unordered group pair.
type Fabric struct {
	intra []*Link
	inter map[[2]int]*Link
}

// NewFabric creates a fabric for n groups with no links; callers add
// them with SetIntra and SetInter.
func NewFabric(n int) *Fabric {
	return &Fabric{intra: make([]*Link, n), inter: make(map[[2]int]*Link)}
}

// NumGroups returns the number of groups the fabric was built for.
func (f *Fabric) NumGroups() int { return len(f.intra) }

// SetIntra installs the intra-group link for group g.
func (f *Fabric) SetIntra(g int, l *Link) { f.intra[g] = l }

// SetInter installs the link between groups a and b (order
// irrelevant).
func (f *Fabric) SetInter(a, b int, l *Link) {
	f.inter[groupKey(a, b)] = l
}

// Intra returns group g's internal link. A missing link is a legal
// runtime condition (a group may be unwired or out of range), so it
// is reported as an error rather than a panic.
func (f *Fabric) Intra(g int) (*Link, error) {
	if g < 0 || g >= len(f.intra) {
		return nil, fmt.Errorf("netsim.Fabric: group %d out of range [0, %d)", g, len(f.intra))
	}
	l := f.intra[g]
	if l == nil {
		return nil, fmt.Errorf("netsim.Fabric: no intra link for group %d", g)
	}
	return l, nil
}

// Between returns the link connecting groups a and b; for a == b it
// returns the intra-group link. A missing link is reported as an
// error: in a faulty distributed system an absent route means the
// pair simply cannot communicate.
func (f *Fabric) Between(a, b int) (*Link, error) {
	if a == b {
		return f.Intra(a)
	}
	l := f.inter[groupKey(a, b)]
	if l == nil {
		return nil, fmt.Errorf("netsim.Fabric: no link between groups %d and %d", a, b)
	}
	return l, nil
}

// EachLink visits every installed link once, in deterministic order:
// intra links by group, then inter links by sorted group pair. The
// callback receives the group pair the link joins (a == b for intra).
func (f *Fabric) EachLink(fn func(a, b int, l *Link)) {
	for g, l := range f.intra {
		if l != nil {
			fn(g, g, l)
		}
	}
	keys := make([][2]int, 0, len(f.inter))
	for k := range f.inter {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		fn(k[0], k[1], f.inter[k])
	}
}

func groupKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Standard link constructors for the systems in the paper.

// GigabitLAN returns a fiber Gigabit Ethernet LAN link like the one
// joining the two ANL machines (shared, low latency).
func GigabitLAN(traffic TrafficModel) *Link {
	return NewLink("gige-lan", 500e-6, 125e6, traffic) // 0.5 ms TCP, 1 Gb/s
}

// MrenWAN returns an ATM OC-3 wide-area link like MREN between ANL
// and NCSA (shared, high latency, 155 Mb/s).
func MrenWAN(traffic TrafficModel) *Link {
	return NewLink("mren-oc3", 10e-3, 19.375e6, traffic) // 10 ms, 155 Mb/s
}

// OriginInterconnect returns an SGI Origin2000-class internal
// interconnect (dedicated, sub-microsecond latency).
func OriginInterconnect() *Link {
	return NewLink("origin-ccnuma", 1e-6, 500e6, nil)
}
