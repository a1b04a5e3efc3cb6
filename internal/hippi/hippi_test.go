package hippi

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestSendDeliversBytes(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e, LineRate, 5*units.Microsecond)
	var got Frame
	n.Attach(1, func(f Frame) {})
	n.Attach(2, func(f Frame) { got = f })
	data := []byte("hello hippi")
	n.Send(1, 2, data, nil)
	e.Run()
	if got.Src != 1 || got.Dst != 2 || !bytes.Equal(got.Data, data) {
		t.Fatalf("bad delivery: %+v", got)
	}
}

func TestSerializationTiming(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e, LineRate, 0)
	var deliveredAt []units.Time
	n.Attach(1, func(Frame) {})
	n.Attach(2, func(Frame) { deliveredAt = append(deliveredAt, e.Now()) })
	// 100 MByte/s = 1 byte per 10 ns; 32 KB frame = 327.68 µs.
	data := make([]byte, 32*1024)
	n.Send(1, 2, data, nil)
	n.Send(1, 2, data, nil)
	e.Run()
	frame := LineRate.TimeFor(32 * units.KB)
	// First frame: tx serialization + rx serialization (store-and-forward).
	if want := 2 * frame; deliveredAt[0] != want {
		t.Fatalf("first delivery at %v, want %v", deliveredAt[0], want)
	}
	// Second frame pipelines behind the first: one extra frame time.
	if want := 3 * frame; deliveredAt[1] != want {
		t.Fatalf("second delivery at %v, want %v", deliveredAt[1], want)
	}
}

func TestSentCallbackAtSourceCompletion(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e, LineRate, 50*units.Microsecond)
	n.Attach(1, func(Frame) {})
	n.Attach(2, func(Frame) {})
	var sentAt units.Time
	data := make([]byte, 1024)
	n.Send(1, 2, data, func() { sentAt = e.Now() })
	e.Run()
	if want := LineRate.TimeFor(1 * units.KB); sentAt != want {
		t.Fatalf("sent at %v, want %v (before propagation)", sentAt, want)
	}
}

// injFn adapts a function to the Injector interface for tests.
type injFn func(*Frame) Verdict

func (fn injFn) Frame(f *Frame) Verdict { return fn(f) }

func TestInjectorDrop(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e, LineRate, 0)
	delivered := 0
	n.Attach(1, func(Frame) {})
	n.Attach(2, func(Frame) { delivered++ })
	i := 0
	n.Inj = injFn(func(*Frame) Verdict { i++; return Verdict{Drop: i%2 == 0} })
	for j := 0; j < 10; j++ {
		n.Send(1, 2, make([]byte, 100), nil)
	}
	e.Run()
	if delivered != 5 || n.Dropped != 5 {
		t.Fatalf("delivered=%d dropped=%d, want 5/5", delivered, n.Dropped)
	}
}

func TestNetObsDropSplit(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e, LineRate, 0)
	n.Attach(1, func(Frame) {})
	n.Attach(2, func(Frame) {})
	i := 0
	n.Inj = injFn(func(*Frame) Verdict { i++; return Verdict{Drop: i <= 3} })
	for j := 0; j < 5; j++ {
		n.Send(1, 2, make([]byte, 100), nil) // 3 injected drops, 2 delivered
	}
	for j := 0; j < 2; j++ {
		n.Send(1, 9, make([]byte, 100), nil) // unattached destination
	}
	e.Run()
	if n.DroppedInj != 3 || n.DroppedUnattached != 2 {
		t.Fatalf("drop split inj=%d unattached=%d, want 3/2", n.DroppedInj, n.DroppedUnattached)
	}
	if n.DroppedInj+n.DroppedUnattached+n.DroppedFull != n.Dropped {
		t.Fatalf("drop split inj=%d + unattached=%d != dropped=%d",
			n.DroppedInj, n.DroppedUnattached, n.Dropped)
	}
	if n.Sent+n.Duped != n.Delivered+n.Dropped {
		t.Fatalf("conservation: sent=%d duped=%d delivered=%d dropped=%d",
			n.Sent, n.Duped, n.Delivered, n.Dropped)
	}
}

func TestInjectorDup(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e, LineRate, 0)
	delivered := 0
	n.Attach(1, func(Frame) {})
	n.Attach(2, func(Frame) { delivered++ })
	n.Inj = injFn(func(*Frame) Verdict { return Verdict{Dup: 1} })
	for j := 0; j < 5; j++ {
		n.Send(1, 2, make([]byte, 100), nil)
	}
	e.Run()
	if delivered != 10 || n.Duped != 5 {
		t.Fatalf("delivered=%d duped=%d, want 10/5", delivered, n.Duped)
	}
	if n.Sent+n.Duped != n.Delivered+n.Dropped {
		t.Fatalf("conservation: sent=%d duped=%d delivered=%d dropped=%d",
			n.Sent, n.Duped, n.Delivered, n.Dropped)
	}
}

func TestInjectorDelayReorders(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e, LineRate, 0)
	var order []int
	n.Attach(1, func(Frame) {})
	n.Attach(2, func(f Frame) { order = append(order, int(f.Data[0])) })
	i := 0
	// Delay only the first frame; the later frames overtake it.
	n.Inj = injFn(func(*Frame) Verdict {
		i++
		if i == 1 {
			return Verdict{Delay: 1 * units.Millisecond}
		}
		return Verdict{}
	})
	for j := 0; j < 3; j++ {
		n.Send(1, 2, []byte{byte(j), 1, 2}, nil)
	}
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[2] != 0 {
		t.Fatalf("delivery order %v, want delayed frame 0 last", order)
	}
}

func TestThroughputAtLineRate(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e, LineRate, 10*units.Microsecond)
	n.Attach(1, func(Frame) {})
	var last units.Time
	var total units.Size
	n.Attach(2, func(f Frame) {
		last = e.Now()
		total += units.Size(len(f.Data))
	})
	for j := 0; j < 100; j++ {
		n.Send(1, 2, make([]byte, 32*1024), nil)
	}
	e.Run()
	rate := units.RateOf(total, last)
	// Back-to-back 32KB frames should sustain close to the 800 Mb/s line rate.
	if r := rate.Mbit(); r < 700 || r > 800 {
		t.Fatalf("sustained rate %.1f Mb/s, want ~790", r)
	}
}

func TestHOLFIFOUtilizationNear58Percent(t *testing.T) {
	// Hluchyj & Karol: saturated FIFO inputs on a large crossbar deliver
	// ≈ 58.6% utilization; the paper cites "at most 58%".
	res := RunFIFO(32, 20000, 42)
	if res.Utilization < 0.54 || res.Utilization > 0.64 {
		t.Fatalf("FIFO utilization = %.3f, want ≈0.586", res.Utilization)
	}
}

func TestHOLLogicalChannelsBeatFIFO(t *testing.T) {
	fifo := RunFIFO(16, 10000, 7)
	voq := RunLogicalChannels(16, 10000, 7)
	if voq.Utilization < 0.9 {
		t.Fatalf("logical-channel utilization = %.3f, want > 0.9", voq.Utilization)
	}
	if voq.Utilization <= fifo.Utilization+0.2 {
		t.Fatalf("logical channels (%.3f) should clearly beat FIFO (%.3f)",
			voq.Utilization, fifo.Utilization)
	}
}

func TestHOLSmallSwitchHigherUtilization(t *testing.T) {
	// For n=2 the theoretical FIFO limit is 0.75; utilization must exceed
	// the asymptotic 0.586.
	res := RunFIFO(2, 20000, 11)
	if res.Utilization < 0.70 || res.Utilization > 0.80 {
		t.Fatalf("2-port FIFO utilization = %.3f, want ≈0.75", res.Utilization)
	}
}

// TestSingleSwitchECNMarks: two senders bursting into one receiver on a
// single switch queue at the receive port, and the queue-threshold marker
// must see the frames that waited behind the threshold — the same last
// hop a multi-switch fabric delivers through.
func TestSingleSwitchECNMarks(t *testing.T) {
	e := sim.NewEngine(1)
	n := NewNetwork(e, LineRate, 0)
	n.Attach(1, func(Frame) {})
	n.Attach(2, func(Frame) {})
	n.Attach(3, func(Frame) {})
	calls := 0
	n.SetECN(16*units.KB, func([]byte) bool { calls++; return true })
	for j := 0; j < 4; j++ {
		n.Send(1, 3, make([]byte, 32*1024), nil)
		n.Send(2, 3, make([]byte, 32*1024), nil)
	}
	e.Run()
	if n.Delivered != 8 {
		t.Fatalf("delivered %d of 8 frames", n.Delivered)
	}
	if calls == 0 || n.ECNMarked != calls {
		t.Fatalf("marker called %d times, ECNMarked=%d; want both > 0 and equal", calls, n.ECNMarked)
	}
}
