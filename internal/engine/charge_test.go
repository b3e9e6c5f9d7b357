package engine

import (
	"slices"
	"testing"

	"samrdlb/internal/amr"
	"samrdlb/internal/machine"
	"samrdlb/internal/vclock"
	"samrdlb/internal/workload"
)

// naivePairs is the per-message form of chargeMessages' aggregation:
// two grid lookups and one map update per message, then the (src, dst)
// sort.
func naivePairs(h *amr.Hierarchy, msgs []amr.Message) []transfer {
	sum := make(map[commPair]int64)
	for _, m := range msgs {
		src, dst := h.Grid(m.Src).Owner, h.Grid(m.Dst).Owner
		if src != dst {
			sum[commPair{src, dst}] += m.Bytes
		}
	}
	var out []transfer
	for p, b := range sum {
		out = append(out, transfer{p, b})
	}
	slices.SortFunc(out, func(a, b transfer) int {
		if a.src != b.src {
			return a.src - b.src
		}
		return a.dst - b.dst
	})
	return out
}

// TestChargeMessagesMatchesNaive checks the run-memoised aggregation
// against the per-message one, on the plans of a real run and on a
// hand-made plan in which a (Src, Dst) pair repeats with other pairs in
// between, same-owner runs (the memo's skip state) sit between charged
// ones, and a Src run continues across a change of Dst.
func TestChargeMessagesMatchesNaive(t *testing.T) {
	sys := machine.WanPair(2, nil)
	r := New(sys, workload.NewShockPool3D(16, 2), Options{Steps: 2, MaxLevel: 2})
	r.Run()
	h := r.Hierarchy()
	check := func(name string, msgs []amr.Message) {
		t.Helper()
		r.chargeMessages(msgs, vclock.LocalComm, vclock.RemoteComm)
		got := r.xfers
		if len(msgs) == 0 {
			got = nil // nothing was charged; xfers holds the previous call's
		}
		if want := naivePairs(h, msgs); !slices.Equal(got, want) {
			t.Errorf("%s: aggregated pairs\n got %v\nwant %v", name, got, want)
		}
	}
	for l := 0; l <= h.MaxLevel; l++ {
		if len(h.GhostPlanCached(l)) == 0 {
			t.Fatalf("level %d has no ghost messages", l)
		}
		check("ghost plan", h.GhostPlanCached(l))
		check("restrict plan", h.RestrictPlanCached(l))
	}
	check("empty plan", nil)

	// One grid per owner 0..3 plus a second grid of owner 0.
	byOwner := map[int][]amr.GridID{}
	for _, g := range h.Grids(0) {
		byOwner[g.Owner] = append(byOwner[g.Owner], g.ID)
	}
	if len(byOwner) < 4 || len(byOwner[0]) < 2 {
		t.Fatalf("fixture: level 0 owners %v", byOwner)
	}
	a, a2, b, c, d := byOwner[0][0], byOwner[0][1], byOwner[1][0], byOwner[2][0], byOwner[3][0]
	msg := func(src, dst amr.GridID, bytes int64) amr.Message {
		return amr.Message{Src: src, Dst: dst, Bytes: bytes}
	}
	check("hand-made plan", []amr.Message{
		msg(b, a, 1), msg(b, a, 2), // a run of one pair
		msg(a2, a, 4),                // same owner: skipped
		msg(b, a, 8),                 // the pair again, after the skip
		msg(c, a, 16), msg(b, a, 32), // … and after another pair
		msg(b, a2, 64),                 // same Src, new Dst, same owners
		msg(b, c, 128), msg(b, d, 256), // same Src, new Dst, new owners
		msg(a, a2, 512), msg(a, a2, 1024), // a same-owner run of two
		msg(d, a2, 2048), msg(a, b, 4096), msg(a2, b, 8192), // two grids of one owner → one pair
	})
}

// BenchmarkChargeMessages measures charging the finest level's ghost
// plan of an AMR64 run at 64³ on 2×4 processors.
func BenchmarkChargeMessages(b *testing.B) {
	r := New(machine.WanPair(4, nil), workload.NewAMR64(64, 2, 1), Options{Steps: 2, MaxLevel: 2})
	r.Run()
	msgs := r.Hierarchy().GhostPlanCached(2)
	if len(msgs) == 0 {
		b.Fatal("no messages")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.chargeMessages(msgs, vclock.LocalComm, vclock.RemoteComm)
	}
}
