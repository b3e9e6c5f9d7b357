package mpx

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestPingPong(t *testing.T) {
	w := oneShard(2)
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 7, []float64{1, 2, 3})
			got := r.Recv(1, 8)
			if len(got) != 1 || got[0] != 6 {
				t.Errorf("rank 0 got %v", got)
			}
		case 1:
			in := r.Recv(0, 7)
			var s float64
			for _, v := range in {
				s += v
			}
			r.Send(0, 8, []float64{s})
		}
	})
}

func TestSendCopiesData(t *testing.T) {
	w := oneShard(2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			buf := []float64{1}
			r.Send(1, 0, buf)
			buf[0] = 99 // must not affect the delivered message
		} else {
			if got := r.Recv(0, 0); got[0] != 1 {
				t.Errorf("message aliased sender buffer: %v", got)
			}
		}
	})
}

func TestOutOfOrderTags(t *testing.T) {
	w := oneShard(2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, []float64{10})
			r.Send(1, 2, []float64{20})
			r.Send(1, 3, []float64{30})
		} else {
			// Receive in reverse order; matching must skip queued
			// messages with other tags.
			if got := r.Recv(0, 3); got[0] != 30 {
				t.Errorf("tag 3 = %v", got)
			}
			if got := r.Recv(0, 1); got[0] != 10 {
				t.Errorf("tag 1 = %v", got)
			}
			if got := r.Recv(0, 2); got[0] != 20 {
				t.Errorf("tag 2 = %v", got)
			}
		}
	})
}

func TestSameTagFIFO(t *testing.T) {
	w := oneShard(2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 10; i++ {
				r.Send(1, 0, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := r.Recv(0, 0); got[0] != float64(i) {
					t.Errorf("message %d out of order: %v", i, got)
				}
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	w := oneShard(1)
	w.Run(func(r *Rank) {
		r.Send(0, 5, []float64{42})
		if got := r.Recv(0, 5); got[0] != 42 {
			t.Errorf("self-send = %v", got)
		}
	})
}

func TestBarrierSeparatesPhases(t *testing.T) {
	const n = 8
	w := oneShard(n)
	var phase1 int32
	w.Run(func(r *Rank) {
		atomic.AddInt32(&phase1, 1)
		r.Barrier()
		// After the barrier every rank must observe all n increments.
		if got := atomic.LoadInt32(&phase1); got != n {
			t.Errorf("rank %d saw %d after barrier", r.ID(), got)
		}
	})
}

func TestBarrierReusable(t *testing.T) {
	const n, rounds = 4, 50
	w := oneShard(n)
	var counter int32
	w.Run(func(r *Rank) {
		for round := 0; round < rounds; round++ {
			atomic.AddInt32(&counter, 1)
			r.Barrier()
			want := int32((round + 1) * n)
			if got := atomic.LoadInt32(&counter); got != want {
				t.Errorf("round %d: counter %d want %d", round, got, want)
			}
			r.Barrier()
		}
	})
}

// tagGather is the tag of the test-local gather below.
const tagGather = 1 << 20

// allGather returns every rank's x, indexed by rank, on every rank:
// a many-to-one gather at rank 0 followed by a one-to-many fan-out,
// the point-to-point pattern the cross-shard tests lean on.
func allGather(r *Rank, x float64) []float64 {
	if r.ID() == 0 {
		out := make([]float64, r.Size())
		out[0] = x
		for src := 1; src < r.Size(); src++ {
			out[src] = r.Recv(src, tagGather)[0]
		}
		for dst := 1; dst < r.Size(); dst++ {
			r.Send(dst, tagGather, out)
		}
		return out
	}
	r.Send(0, tagGather, []float64{x})
	return r.Recv(0, tagGather)
}

// allReduceSum returns the sum of x over all ranks, on every rank.
func allReduceSum(r *Rank, x float64) float64 {
	var sum float64
	for _, v := range allGather(r, x) {
		sum += v
	}
	return sum
}

func TestAllReduceSum(t *testing.T) {
	const n = 6
	w := oneShard(n)
	w.Run(func(r *Rank) {
		got := allReduceSum(r, float64(r.ID()+1))
		if got != n*(n+1)/2 {
			t.Errorf("rank %d: sum = %v", r.ID(), got)
		}
	})
}

func TestAllGather(t *testing.T) {
	const n = 5
	w := oneShard(n)
	w.Run(func(r *Rank) {
		vals := allGather(r, float64(r.ID()*10))
		if len(vals) != n {
			t.Fatalf("len = %d", len(vals))
		}
		for i, v := range vals {
			if v != float64(i*10) {
				t.Errorf("rank %d: vals[%d] = %v", r.ID(), i, v)
			}
		}
	})
}

func TestCollectivesRepeatedly(t *testing.T) {
	// Back-to-back gathers under one tag must not cross-talk.
	const n = 4
	w := oneShard(n)
	w.Run(func(r *Rank) {
		for i := 0; i < 20; i++ {
			s := allReduceSum(r, float64(i))
			if s != float64(i*n) {
				t.Errorf("iteration %d: %v", i, s)
			}
		}
	})
}

func TestAllToAllNoDeadlock(t *testing.T) {
	// Every rank sends a large message to every other rank before
	// receiving anything: buffered sends must prevent deadlock.
	const n = 8
	w := oneShard(n)
	payload := make([]float64, 4096)
	w.Run(func(r *Rank) {
		for dst := 0; dst < n; dst++ {
			if dst != r.ID() {
				r.Send(dst, r.ID(), payload)
			}
		}
		for src := 0; src < n; src++ {
			if src != r.ID() {
				if got := r.Recv(src, src); len(got) != len(payload) {
					t.Errorf("short message from %d", src)
				}
			}
		}
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic to propagate")
		}
	}()
	oneShard(3).Run(func(r *Rank) {
		if r.ID() == 1 {
			panic("boom")
		}
	})
}

func TestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad world size")
		}
	}()
	oneShard(0)
}

func TestBadEndpointsPanic(t *testing.T) {
	w := oneShard(2)
	w.Run(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Send to bad rank must panic")
				}
			}()
			r.Send(5, 0, nil)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Recv from bad rank must panic")
				}
			}()
			r.Recv(-1, 0)
		}()
	})
}

func TestReduceMatchesSequential(t *testing.T) {
	const n = 7
	w := oneShard(n)
	w.Run(func(r *Rank) {
		x := math.Sqrt(float64(r.ID() + 1))
		got := allReduceSum(r, x)
		var want float64
		for i := 1; i <= n; i++ {
			want += math.Sqrt(float64(i))
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("sum = %v want %v", got, want)
		}
	})
}
