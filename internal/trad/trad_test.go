package trad

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/geo"
	"p2pdrm/internal/sim"
	"p2pdrm/internal/simnet"
)

var t0 = time.Date(2008, 6, 23, 20, 0, 0, 0, time.UTC)

func setup(t *testing.T, cfg Config) (*sim.Scheduler, *simnet.Network, *Server) {
	t.Helper()
	s := sim.New(t0, 1)
	net := simnet.New(s, simnet.WithLatency(simnet.UniformLatency{Base: 10 * time.Millisecond}))
	srv, err := New(net.NewNode("license.provider"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, net, srv
}

func TestLicenseGrantAndStableKey(t *testing.T) {
	s, net, srv := setup(t, Config{RNG: cryptoutil.NewSeededReader(1)})
	c1 := net.NewNode(geo.Addr(1, 1, 1))
	c2 := net.NewNode(geo.Addr(1, 1, 2))
	var k1, k2 []byte
	s.Go(func() {
		if _, err := RequestLicense(c1, "license.provider", 7, "movie-1", 0); err != nil {
			t.Errorf("license 1: %v", err)
		}
		if _, err := RequestLicense(c2, "license.provider", 8, "movie-1", 0); err != nil {
			t.Errorf("license 2: %v", err)
		}
	})
	// Capture keys through a direct query of internal state afterwards.
	s.Run()
	srv.mu.Lock()
	key := srv.fileKeys["movie-1"]
	srv.mu.Unlock()
	k1, k2 = key[:], key[:]
	if !bytes.Equal(k1, k2) {
		t.Fatal("same file produced different keys")
	}
}

func TestMaxPlaybacksEnforced(t *testing.T) {
	s, net, _ := setup(t, Config{MaxPlaybacks: 2, RNG: cryptoutil.NewSeededReader(1)})
	c := net.NewNode(geo.Addr(1, 1, 1))
	var errs []error
	s.Go(func() {
		for i := 0; i < 3; i++ {
			_, err := RequestLicense(c, "license.provider", 7, "song-1", 0)
			errs = append(errs, err)
		}
	})
	s.Run()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("first two plays: %v %v", errs[0], errs[1])
	}
	if errs[2] == nil || !strings.Contains(errs[2].Error(), "denied") {
		t.Fatalf("third play err = %v, want denial", errs[2])
	}
}

func TestMaxDevicesEnforced(t *testing.T) {
	s, net, _ := setup(t, Config{MaxDevices: 1, RNG: cryptoutil.NewSeededReader(1)})
	c1 := net.NewNode(geo.Addr(1, 1, 1))
	c2 := net.NewNode(geo.Addr(1, 1, 2))
	var err1, err2, err3 error
	s.Go(func() {
		_, err1 = RequestLicense(c1, "license.provider", 7, "movie", 0)
		_, err2 = RequestLicense(c2, "license.provider", 7, "movie", 0) // second device
		_, err3 = RequestLicense(c1, "license.provider", 7, "movie", 0) // original device again
	})
	s.Run()
	if err1 != nil {
		t.Fatalf("first device: %v", err1)
	}
	if err2 == nil {
		t.Fatal("second device granted beyond the binding limit")
	}
	if err3 != nil {
		t.Fatalf("re-license on bound device: %v", err3)
	}
}

func TestCentralServerQueuesUnderFlashCrowd(t *testing.T) {
	// 50 correlated arrivals against 1 worker with 20ms service time:
	// the last client waits ≈ 50×20ms = 1s — peak-load queueing the
	// paper's design avoids.
	s, net, srv := setup(t, Config{
		Workers:     1,
		ServiceTime: func() time.Duration { return 20 * time.Millisecond },
		RNG:         cryptoutil.NewSeededReader(1),
	})
	var maxLat time.Duration
	for i := 0; i < 50; i++ {
		c := net.NewNode(geo.Addr(1, 1, i+1))
		userIN := uint64(i + 1)
		s.Go(func() {
			lat, err := RequestLicense(c, "license.provider", userIN, "live-event", 30*time.Second)
			if err != nil {
				t.Errorf("license: %v", err)
				return
			}
			if lat > maxLat {
				maxLat = lat
			}
		})
	}
	s.Run()
	if maxLat < 800*time.Millisecond {
		t.Fatalf("max latency %v — expected ≈1s queueing at the central server", maxLat)
	}
	if _, maxQ := srv.QueueDepth(); maxQ < 30 {
		t.Fatalf("max queue depth %d — burst did not queue", maxQ)
	}
}
