package simnet

import (
	"math"
	"slices"
	"time"
)

// FaultKind names what a Fault does while it is in force.
type FaultKind uint8

const (
	// Loss drops each packet between A and B with probability P. With A
	// and B both empty it sets the base loss rate of every link.
	Loss FaultKind = iota
	// Partition severs every link between A and B.
	Partition
	// Down crashes every node in A. Requests in flight at a down node
	// vanish and their callers time out, as a process crash loses its
	// request queue.
	Down
)

// Fault is one entry of a fault plan: Kind in force over [At, At+For),
// or from At on when For is 0. Windows over one link or node compose: a
// link stays cut and a node down while any window over it is open, and
// the newest open Loss window sets a link's P, so when it ends the loss
// falls back to the newest one still open. A link is the unordered pair
// of an address in A and a different one in B; a link addressed through
// a VIP keys on the VIP address, so link faults hit the client↔farm
// path, not individual backends.
type Fault struct {
	Kind FaultKind
	At   time.Time
	For  time.Duration
	A, B []Addr
	P    float64
}

// Inject applies a fault plan off the deterministic scheduler. Faults
// apply in the order given, which also orders their events at one
// instant; a fault due at or before Now applies at once. Down resolves
// its addresses when it fires, so an outage can be planned before its
// node exists.
func (n *Network) Inject(faults ...Fault) {
	now := n.sched.Now()
	at := func(t time.Time, fn func()) {
		if t.After(now) {
			n.sched.At(t, fn)
		} else {
			fn()
		}
	}
	for _, f := range faults {
		f.A, f.B = slices.Clone(f.A), slices.Clone(f.B)
		var end func()
		at(f.At, func() { end = n.begin(&f) })
		if f.For > 0 {
			at(f.At.Add(f.For), func() { end() })
		}
	}
}

// begin puts f in force and returns what ends it.
func (n *Network) begin(f *Fault) (end func()) {
	if f.Kind != Down {
		n.links(f, 1)
		return func() { n.links(f, -1) }
	}
	var nodes []*Node
	for _, a := range f.A {
		if nd, ok := n.node(a); ok {
			nd.addDown(1)
			nodes = append(nodes, nd)
		}
	}
	return func() {
		for _, nd := range nodes {
			nd.addDown(-1)
		}
	}
}

// links opens (d = 1) or closes (d = -1) one Loss or Partition window
// over every link f covers.
func (n *Network) links(f *Fault, d int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f.Kind == Loss && len(f.A) == 0 && len(f.B) == 0 {
		n.baseLoss = openLoss(n.baseLoss, f, d)
		n.lossRate.Store(math.Float64bits(lossP(n.baseLoss)))
		return
	}
	for _, x := range f.A {
		for _, y := range f.B {
			if x == y {
				continue
			}
			k := linkKey(x, y)
			if f.Kind == Partition {
				if n.cut[k] += d; n.cut[k] == 0 {
					delete(n.cut, k)
				}
				continue
			}
			if w := openLoss(n.linkLoss[k], f, d); len(w) == 0 {
				delete(n.linkLoss, k)
			} else {
				n.linkLoss[k] = w
			}
		}
	}
	// The counts keep the transmit fast path lock-free while no link is
	// cut or overridden.
	n.cutCount.Store(int64(len(n.cut)))
	n.ovCount.Store(int64(len(n.linkLoss)))
}

// openLoss opens (d = 1) or closes (d = -1) f's window among the open
// Loss windows of one link, oldest first.
func openLoss(open []*Fault, f *Fault, d int) []*Fault {
	if d > 0 {
		return append(open, f)
	}
	i := slices.Index(open, f)
	return slices.Delete(open, i, i+1)
}

// lossP is the loss in force under the open Loss windows: the newest
// one's P, or 0 when none is open.
func lossP(open []*Fault) float64 {
	if len(open) == 0 {
		return 0
	}
	return open[len(open)-1].P
}

func linkKey(a, b Addr) [2]Addr {
	if a > b {
		a, b = b, a
	}
	return [2]Addr{a, b}
}
