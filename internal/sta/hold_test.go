package sta

import (
	"math"
	"testing"
)

func TestHoldRegPairClean(t *testing.T) {
	d := regPair(t)
	a := New(d, DefaultConstraints(1e-9))
	sum := a.HoldTiming()
	if sum.Endpoints == 0 {
		t.Fatal("no hold endpoints")
	}
	// Min path = clk2q (40ps) + inv (10ps) = 50ps > 5ps hold: clean.
	if sum.Failing != 0 || sum.WHS != 0 {
		t.Fatalf("unexpected hold violation: %+v", sum)
	}
}

func TestHoldViolationWithSkew(t *testing.T) {
	d := regPair(t)
	a := New(d, DefaultConstraints(1e-9))
	// Capture clock arrives 100ps late: data (50ps) beats clk+hold (105ps).
	a.SetClockArrivalList([]ClockArrival{
		{Pin: pinRef(d, d.Instance("ff0").ID, "CK"), T: 0},
		{Pin: pinRef(d, d.Instance("ff1").ID, "CK"), T: 100e-12},
	})
	sum := a.HoldTiming()
	if sum.Failing == 0 {
		t.Fatalf("expected hold violation under heavy skew: %+v", sum)
	}
	// slack = 50ps - (100ps + 5ps) = -55ps.
	if math.Abs(sum.WHS-(-55e-12)) > 1e-15 {
		t.Fatalf("WHS=%v want -55ps", sum.WHS)
	}
	if sum.THS > sum.WHS {
		t.Fatalf("THS %v should be <= WHS %v", sum.THS, sum.WHS)
	}
}

func TestHoldIgnoresCombOnlyDesign(t *testing.T) {
	d := combChain(t, 3)
	a := New(d, DefaultConstraints(1e-9))
	sum := a.HoldTiming()
	if sum.Endpoints != 0 {
		t.Fatalf("pure combinational design has no hold endpoints: %+v", sum)
	}
}
