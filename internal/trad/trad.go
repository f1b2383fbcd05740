// Package trad implements the baseline the paper argues against (§I,
// §IV): a "traditional DRM" License Manager for file-granular content.
// Every client must acquire a playback license from the central server
// right before playback; the server keeps per-client state (device
// bindings and playback counts) and has finite capacity. Under the
// highly correlated arrivals of a live event this design needs peak-load
// provisioning — the scalability comparison in the benchmarks regenerates
// exactly that blow-up against the stateless ticket managers + P2P
// delegation of the paper's design.
package trad

import (
	"fmt"
	"io"
	"sync"
	"time"

	"p2pdrm/internal/cryptoutil"
	"p2pdrm/internal/simnet"
	"p2pdrm/internal/svc"
	"p2pdrm/internal/wire"
)

// Config parameterizes the License Manager.
type Config struct {
	// Workers and ServiceTime define the server's capacity (per-request
	// license cryptography + database work). The service time of a
	// license issue is typically larger than a stateless ticket check
	// because of per-client state reads/writes.
	Workers     int
	ServiceTime func() time.Duration
	// MaxPlaybacks bounds playbacks per (user, file); 0 = unlimited.
	// Traditional DRM "places heavy emphasis on restricting the number
	// of playbacks" (§II).
	MaxPlaybacks int
	// MaxDevices bounds distinct device addresses per (user, file).
	MaxDevices int
	// RNG supplies license keys (nil = crypto/rand).
	RNG io.Reader
}

// Server is the central, stateful License Manager.
type Server struct {
	cfg  Config
	node *simnet.Node
	rt   *svc.Runtime

	mu        sync.Mutex
	fileKeys  map[string]cryptoutil.SymKey
	playbacks map[licKey]int
	devices   map[licKey]map[simnet.Addr]bool
}

type licKey struct {
	UserIN uint64
	FileID string
}

// New creates a License Manager on the node.
func New(node *simnet.Node, cfg Config) (*Server, error) {
	if cfg.Workers > 0 {
		node.SetCapacity(cfg.Workers, cfg.ServiceTime)
	}
	s := &Server{
		cfg:       cfg,
		node:      node,
		rt:        svc.NewRuntime(node),
		fileKeys:  make(map[string]cryptoutil.SymKey),
		playbacks: make(map[licKey]int),
		devices:   make(map[licKey]map[simnet.Addr]bool),
	}
	svc.Register(s.rt, wire.SvcLicense, wire.DecodeLicenseReq, s.handleLicense)
	return s, nil
}

// Runtime exposes the server's service runtime (endpoint metrics).
func (s *Server) Runtime() *svc.Runtime { return s.rt }

// QueueDepth exposes the request queue high-water mark.
func (s *Server) QueueDepth() (cur, max int) { return s.node.QueueDepth() }

func (s *Server) handleLicense(from simnet.Addr, req *wire.LicenseReq) (*wire.LicenseResp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := licKey{UserIN: req.UserIN, FileID: req.FileID}

	// Per-client state: device binding and playback counting — the very
	// state the paper's managers refuse to keep in memory (§V).
	devs := s.devices[k]
	if devs == nil {
		devs = make(map[simnet.Addr]bool)
		s.devices[k] = devs
	}
	if s.cfg.MaxDevices > 0 && !devs[from] && len(devs) >= s.cfg.MaxDevices {
		return &wire.LicenseResp{Granted: false}, nil
	}
	if s.cfg.MaxPlaybacks > 0 && s.playbacks[k] >= s.cfg.MaxPlaybacks {
		return &wire.LicenseResp{Granted: false}, nil
	}
	devs[from] = true
	s.playbacks[k]++

	key, ok := s.fileKeys[req.FileID]
	if !ok {
		var err error
		key, err = cryptoutil.NewSymKey(s.cfg.RNG)
		if err != nil {
			return nil, wire.Errf(wire.CodeInternal, "keygen failed")
		}
		s.fileKeys[req.FileID] = key
	}
	return &wire.LicenseResp{Granted: true, Key: key[:]}, nil
}

// RequestLicense is the client side: acquire the playback license for
// fileID right before playback. It returns the measured latency.
func RequestLicense(node *simnet.Node, server simnet.Addr, userIN uint64, fileID string, timeout time.Duration) (time.Duration, error) {
	s := node.Scheduler()
	start := s.Now()
	req := &wire.LicenseReq{UserIN: userIN, FileID: fileID}
	t := svc.Plain{Node: node, Timeout: timeout}
	resp, err := svc.Invoke(t, server, wire.SvcLicense, req, wire.DecodeLicenseResp)
	lat := s.Now().Sub(start)
	if err != nil {
		return lat, err
	}
	if !resp.Granted {
		return lat, fmt.Errorf("trad: license denied for %s", fileID)
	}
	return lat, nil
}
