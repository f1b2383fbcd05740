// Package geo is the synthetic stand-in for the paper's network-address
// intelligence: the User Manager infers the user's geographic region
// (MaxMind GeoIP in the paper, ref [12]) and origin Autonomous System
// (ref [13]) from the client connection's network address.
//
// The simulation uses a structured address plan instead of IPv4:
//
//	r<region>.as<asn>.h<host>     e.g. "r100.as177.h42"
//
// so region and AS are derivable deterministically, preserving exactly
// the property the DRM needs (an address → (region, AS) oracle).
package geo

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
)

// Info is the intelligence derived from a network address.
type Info struct {
	Region string
	ASN    string
}

// ErrUnknownAddr indicates the address does not follow the plan (the
// real-world analogue: an IP missing from the GeoIP database).
var ErrUnknownAddr = errors.New("geo: address not in database")

// Addr builds a plan-conforming address.
func Addr(region, asn, host int) simnet.Addr {
	return simnet.Addr(fmt.Sprintf("r%d.as%d.h%d", region, asn, host))
}

// Lookup derives region and AS from an address. The parse is allocation
// free — substrings of the address share its backing memory — because
// every session event on the hot path consults the oracle.
func Lookup(addr simnet.Addr) (Info, error) {
	s := string(addr)
	dot1 := strings.IndexByte(s, '.')
	if dot1 < 0 {
		return Info{}, ErrUnknownAddr
	}
	dot2 := strings.IndexByte(s[dot1+1:], '.')
	if dot2 < 0 {
		return Info{}, ErrUnknownAddr
	}
	dot2 += dot1 + 1
	if strings.IndexByte(s[dot2+1:], '.') >= 0 {
		return Info{}, ErrUnknownAddr
	}
	region, ok := strings.CutPrefix(s[:dot1], "r")
	if !ok {
		return Info{}, ErrUnknownAddr
	}
	asn, ok := strings.CutPrefix(s[dot1+1:dot2], "as")
	if !ok {
		return Info{}, ErrUnknownAddr
	}
	if !strings.HasPrefix(s[dot2+1:], "h") {
		return Info{}, ErrUnknownAddr
	}
	if _, err := strconv.Atoi(region); err != nil {
		return Info{}, ErrUnknownAddr
	}
	if _, err := strconv.Atoi(asn); err != nil {
		return Info{}, ErrUnknownAddr
	}
	return Info{Region: region, ASN: asn}, nil
}

// regionOf returns just the region ("" when unknown). Infrastructure
// addresses (e.g. "um.provider") have no region.
func regionOf(addr simnet.Addr) string {
	info, err := Lookup(addr)
	if err != nil {
		return ""
	}
	return info.Region
}

// LatencyModel builds a simnet latency model where same-region links pay
// intra + U(0, jitter) and cross-region links pay inter + U(0, jitter).
// Infrastructure nodes (addresses outside the plan) count as their own
// location: links to them always pay inter.
func LatencyModel(intra, inter, jitter time.Duration) simnet.LatencyModel {
	return simnet.LatencyFunc(func(s *sim.Scheduler, src, dst simnet.Addr) time.Duration {
		base := inter
		rs, rd := regionOf(src), regionOf(dst)
		if rs != "" && rs == rd {
			base = intra
		}
		if jitter > 0 {
			base += time.Duration(s.Float64() * float64(jitter))
		}
		return base
	})
}
