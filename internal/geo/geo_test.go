package geo

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
)

func TestAddrLookupRoundTrip(t *testing.T) {
	a := Addr(100, 177, 42)
	if a != "r100.as177.h42" {
		t.Fatalf("Addr = %q", a)
	}
	info, err := Lookup(a)
	if err != nil {
		t.Fatal(err)
	}
	if info.Region != "100" || info.ASN != "177" {
		t.Fatalf("info = %+v", info)
	}
}

func TestLookupRejectsMalformed(t *testing.T) {
	for _, bad := range []simnet.Addr{
		"", "um.provider", "r100.as177", "x100.as177.h1", "r100.x177.h1",
		"r100.as177.x1", "rABC.as177.h1", "r100.asXYZ.h1", "a.b.c.d",
	} {
		if _, err := Lookup(bad); !errors.Is(err, ErrUnknownAddr) {
			t.Errorf("Lookup(%q) err = %v, want ErrUnknownAddr", bad, err)
		}
	}
}

func TestRegionHelper(t *testing.T) {
	if regionOf(Addr(7, 1, 2)) != "7" {
		t.Fatal("Region lookup failed")
	}
	if regionOf("cm1.provider") != "" {
		t.Fatal("infrastructure address got a region")
	}
}

func TestLatencyModelIntraVsInter(t *testing.T) {
	s := sim.New(time.Unix(0, 0), 1)
	m := LatencyModel(5*time.Millisecond, 50*time.Millisecond, 0)
	intra := m.Sample(s, Addr(1, 10, 1), Addr(1, 11, 2))
	if intra != 5*time.Millisecond {
		t.Fatalf("intra-region latency = %v", intra)
	}
	inter := m.Sample(s, Addr(1, 10, 1), Addr(2, 10, 1))
	if inter != 50*time.Millisecond {
		t.Fatalf("inter-region latency = %v", inter)
	}
	infra := m.Sample(s, Addr(1, 10, 1), "um.provider")
	if infra != 50*time.Millisecond {
		t.Fatalf("client-to-infrastructure latency = %v", infra)
	}
}

func TestLatencyModelJitterBounded(t *testing.T) {
	s := sim.New(time.Unix(0, 0), 1)
	m := LatencyModel(5*time.Millisecond, 50*time.Millisecond, 10*time.Millisecond)
	for i := 0; i < 100; i++ {
		d := m.Sample(s, Addr(1, 1, 1), Addr(1, 1, 2))
		if d < 5*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("jittered latency %v outside [5ms,15ms)", d)
		}
	}
}

// Property: every plan-generated address parses back to its inputs.
func TestAddrProperty(t *testing.T) {
	f := func(region, asn, host uint16) bool {
		info, err := Lookup(Addr(int(region), int(asn), int(host)))
		if err != nil {
			return false
		}
		return info.Region == itoa(int(region)) && info.ASN == itoa(int(asn))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
