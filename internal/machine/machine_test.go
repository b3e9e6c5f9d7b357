package machine

import (
	"strings"
	"testing"

	"samrdlb/internal/netsim"
)

func TestNewAssignsIDsAndGroups(t *testing.T) {
	s := WanPair(4, nil)
	if s.NumProcs() != 8 || s.NumGroups() != 2 {
		t.Fatalf("procs %d groups %d", s.NumProcs(), s.NumGroups())
	}
	for _, p := range s.ProcsInGroup(0) {
		if s.GroupOf(p) != 0 {
			t.Errorf("proc %d should be in group 0", p)
		}
	}
	if s.GroupOf(7) != 1 {
		t.Error("proc 7 should be in group 1")
	}
}

func TestPerfAggregates(t *testing.T) {
	s := Heterogeneous(4, 4, 0.5, nil)
	if got := s.GroupPerf(0); got != 4 {
		t.Errorf("GroupPerf(0) = %v", got)
	}
	if got := s.GroupPerf(1); got != 2 {
		t.Errorf("GroupPerf(1) = %v", got)
	}
	if got := s.TotalPerf(); got != 6 {
		t.Errorf("TotalPerf = %v", got)
	}
}

func TestSameGroupAndLinks(t *testing.T) {
	s := WanPair(2, nil)
	if !s.SameGroup(0, 1) || s.SameGroup(1, 2) {
		t.Error("group membership wrong")
	}
	local, err := s.LinkBetween(0, 1)
	if err != nil {
		t.Fatalf("LinkBetween: %v", err)
	}
	remote, err := s.LinkBetween(0, 3)
	if err != nil {
		t.Fatalf("LinkBetween: %v", err)
	}
	if local.Alpha >= remote.Alpha {
		t.Error("intra-group link must have lower latency than WAN")
	}
}

func TestOrigin2000SingleGroup(t *testing.T) {
	s := Origin2000("ANL", 8)
	if s.NumGroups() != 1 || s.NumProcs() != 8 {
		t.Fatal("Origin2000 shape wrong")
	}
	// All communication routes over the internal interconnect.
	l, err := s.LinkBetween(0, 7)
	if err != nil {
		t.Fatalf("LinkBetween: %v", err)
	}
	if l.Alpha > 1e-5 {
		t.Error("parallel machine interconnect should be sub-10µs")
	}
}

func TestLanPairUsesSharedLAN(t *testing.T) {
	s := LanPair(2, netsim.ConstantTraffic{Level: 0.3})
	l, err := s.LinkBetween(0, 2)
	if err != nil {
		t.Fatalf("LinkBetween: %v", err)
	}
	if l.LoadAt(0) != 0.3 {
		t.Error("LAN traffic model not wired through")
	}
}

func TestNewValidation(t *testing.T) {
	fab := netsim.NewFabric(1)
	fab.SetIntra(0, netsim.OriginInterconnect())
	assertPanics(t, "fabric group mismatch", func() {
		New([]GroupSpec{{Name: "a", Procs: 1}, {Name: "b", Procs: 1}}, fab, 1e6)
	})
	assertPanics(t, "empty group", func() {
		New([]GroupSpec{{Name: "a", Procs: 0}}, fab, 1e6)
	})
	assertPanics(t, "bad flops", func() {
		New([]GroupSpec{{Name: "a", Procs: 1}}, fab, 0)
	})
	// Perf defaults to 1.
	s := New([]GroupSpec{{Name: "a", Procs: 2}}, fab, 1e6)
	if s.Perf(0) != 1 {
		t.Error("Perf should default to 1")
	}
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestString(t *testing.T) {
	s := WanPair(4, nil)
	str := s.String()
	if !strings.Contains(str, "ANL") || !strings.Contains(str, "NCSA") {
		t.Errorf("String missing group names: %s", str)
	}
}

func TestMultiSite(t *testing.T) {
	s := MultiSite([]int{2, 3, 1}, func(a, b int) netsim.TrafficModel {
		return netsim.ConstantTraffic{Level: 0.1 * float64(a+b)}
	})
	if s.NumGroups() != 3 || s.NumProcs() != 6 {
		t.Fatalf("shape wrong: %s", s)
	}
	// Every pair is connected; traffic wired per pair.
	l01, err := s.Net.Between(0, 1)
	if err != nil {
		t.Fatalf("Between: %v", err)
	}
	l12, err := s.Net.Between(1, 2)
	if err != nil {
		t.Fatalf("Between: %v", err)
	}
	if l01.LoadAt(0) >= l12.LoadAt(0) {
		t.Error("per-pair traffic models not wired")
	}
	if !s.SameGroup(0, 1) || s.SameGroup(1, 2) {
		t.Error("group membership wrong")
	}
	assertPanics(t, "one site", func() { MultiSite([]int{4}, nil) })
}
