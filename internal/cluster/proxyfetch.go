// Proxy fetch: the cluster leg of job-to-job dataflow. A chained job whose
// input handle originates on another peer resolves it HERE — the consumer's
// server asks the handle's origin scope directly over the pooled peer
// connections, so the payload crosses one server-to-server link and never
// touches the client. Plugs into jobs.Config.ProxyFetch.

package cluster

import (
	"fmt"

	"dooc/internal/proxy"
	"dooc/internal/remote"
)

// ProxyFetch resolves a foreign handle's payload from the peer whose node
// ID equals the handle's scope. The remote resolve verifies chunk checksums
// and the registered SHA-256 end to end; a scope that is not a live member
// reports ErrNotMember (the origin died — its handles died with it).
func (n *Node) ProxyFetch(scope, name string, epoch uint64) ([]byte, error) {
	if scope == n.cfg.Self.ID {
		return nil, fmt.Errorf("cluster: proxy %s@%d: fetch loop — scope is this node", name, epoch)
	}
	cl, err := n.client(scope)
	if err != nil {
		return nil, fmt.Errorf("cluster: proxy %s@%d@%s: %w", name, epoch, scope, err)
	}
	data, _, err := cl.ResolveProxy(proxy.Ref{Name: name, Epoch: epoch, Scope: scope})
	if err != nil {
		// Only a lost connection or a deadline says anything about the
		// peer's liveness; any answer it sent means it is alive.
		if remote.IsTransport(err) {
			n.maybeDead(scope)
		} else {
			n.markSeen(scope)
		}
		return nil, err
	}
	n.markSeen(scope)
	n.metrics.proxyFetches.Inc()
	n.metrics.proxyFetchBytes.Add(int64(len(data)))
	return data, nil
}
