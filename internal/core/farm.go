package core

import (
	"fmt"
	"slices"
	"strings"

	"p2pdrm/internal/simnet"
)

// farm is one logical manager of §V: interchangeable members, built from
// one configuration, that share "a single network name/address" — the
// VIP. add is the only way a member is made, at deployment and whenever
// the farm grows, so every member of a farm is built alike.
type farm[M any] struct {
	net   *simnet.Network
	vip   simnet.Addr
	build func(node *simnet.Node) (M, error)
	// members holds every member ever built, in build order, drained
	// ones included; pool holds the addresses the VIP routes to.
	members []M
	pool    []simnet.Addr
}

// newFarm creates the VIP and builds n members behind it.
func newFarm[M any](net *simnet.Network, vip simnet.Addr, n int, build func(*simnet.Node) (M, error)) (*farm[M], error) {
	net.NewVIP(vip)
	f := &farm[M]{net: net, vip: vip, build: build}
	for i := 0; i < n; i++ {
		if _, err := f.add(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// add builds the next member on a new node and puts it in the VIP pool.
// The n-th member ever built is named by numbering the VIP's first label
// (um.eu.provider: um<n>.eu.provider), so a drained member keeps its
// name and the next one takes a new one. A member whose build fails
// leaves no node behind.
func (f *farm[M]) add() (simnet.Addr, error) {
	role, rest, _ := strings.Cut(string(f.vip), ".")
	node := f.net.NewNode(simnet.Addr(fmt.Sprintf("%s%d.%s", role, len(f.members)+1, rest)))
	m, err := f.build(node)
	if err != nil {
		f.net.RemoveNode(node.Addr())
		return "", err
	}
	f.members = append(f.members, m)
	f.pool = append(f.pool, node.Addr())
	f.net.AddVIPBackend(f.vip, node)
	return node.Addr(), nil
}

// drain takes a member out of the VIP pool: it receives no new request,
// but its node stays up, so a request already routed to it completes
// there. The last member in the pool cannot be drained.
func (f *farm[M]) drain(addr simnet.Addr) error {
	i := slices.Index(f.pool, addr)
	if i < 0 {
		return fmt.Errorf("core: %s is not in the %s pool", addr, f.vip)
	}
	if len(f.pool) == 1 {
		return fmt.Errorf("core: cannot drain %s, the last member of %s", addr, f.vip)
	}
	f.net.RemoveVIPBackend(f.vip, addr)
	f.pool = slices.Delete(f.pool, i, i+1)
	return nil
}

// pools lists the VIP pools of farms, in order.
func pools[M any](farms []*farm[M]) (out []simnet.Addr) {
	for _, f := range farms {
		out = append(out, f.pool...)
	}
	return out
}

// membersOf lists every member of farms, in order.
func membersOf[M any](farms []*farm[M]) (out []M) {
	for _, f := range farms {
		out = append(out, f.members...)
	}
	return out
}
