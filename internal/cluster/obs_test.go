package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dooc/internal/obs"
)

// TestClusterObsReconcile drives a shared-registry cluster through pushes,
// forwarded reads, replica traffic, and a role rejection, then checks
// that every dooc_cluster_* series reconciles exactly with the nodes'
// Counters() snapshots — the acceptance criterion that the two reporting
// paths can never drift (both are fed by the same increments).
func TestClusterObsReconcile(t *testing.T) {
	reg := obs.NewRegistry()
	peers := startTestCluster(t, 4, func(i int, cfg *Config) {
		cfg.Obs = reg
		cfg.Hot = func(array string) bool { return strings.HasPrefix(array, "x_") }
	})

	ring := peers[0].node.currentRing()
	payload := bytes.Repeat([]byte{6}, 1024)
	// Cold pushes and forwarded reads across several keys.
	for b := 0; b < 6; b++ {
		pusher := peers[b%len(peers)]
		pusher.node.PushBlock("A", b, payload)
		reader := peerByID(peers, findNonOwner(ring, "A", b))
		reader.node.FetchBlock("A", b)
	}
	// Hot-array traffic: fills, hits, a write-back, and a delete.
	hotBlock := findBlockExcluding(t, ring, "x_t", "n1")
	hotPeer := peerByID(peers, "n1")
	hotPeer.node.PushBlock("x_t", hotBlock, payload)
	hotPeer.node.FetchBlock("x_t", hotBlock) // forward + fill
	hotPeer.node.FetchBlock("x_t", hotBlock) // replica hit
	hotPeer.node.PushBlock("x_t", hotBlock, payload)
	peers[0].node.InvalidateArray("A")
	// A miss and an explicit gossip round.
	peers[2].node.FetchBlock("missing", 0)
	peers[0].node.gossipOnce()
	// Let the best-effort remote deletes land so residency gauges are
	// stable before reconciling.
	waitFor(t, 2*time.Second, "remote deletes of A to settle", func() bool {
		for _, p := range peers {
			for b := 0; b < 6; b++ {
				if _, _, ok := p.node.table.Get("A", b); ok {
					return false
				}
			}
		}
		return true
	})

	counterSeries := map[string]func(Counters) int64{
		"dooc_cluster_forwarded_reads_total":       func(c Counters) int64 { return c.ForwardedReads },
		"dooc_cluster_forwarded_read_misses_total": func(c Counters) int64 { return c.ForwardedReadMisses },
		"dooc_cluster_forwarded_bytes_total":       func(c Counters) int64 { return c.ForwardedBytes },
		"dooc_cluster_pushes_total":                func(c Counters) int64 { return c.Pushes },
		"dooc_cluster_push_acks_total":             func(c Counters) int64 { return c.PushAcks },
		"dooc_cluster_push_bytes_total":            func(c Counters) int64 { return c.PushBytes },
		"dooc_cluster_replica_hits_total":          func(c Counters) int64 { return c.ReplicaHits },
		"dooc_cluster_replica_stale_total":         func(c Counters) int64 { return c.ReplicaStale },
		"dooc_cluster_replica_fills_total":         func(c Counters) int64 { return c.ReplicaFills },
		"dooc_cluster_peer_deaths_total":           func(c Counters) int64 { return c.PeerDeaths },
		"dooc_cluster_role_rejections_total":       func(c Counters) int64 { return c.RoleRejections },
		"dooc_cluster_served_gets_total":           func(c Counters) int64 { return c.ServedGets },
		"dooc_cluster_served_puts_total":           func(c Counters) int64 { return c.ServedPuts },
		"dooc_cluster_view_exchanges_total":        func(c Counters) int64 { return c.ViewExchanges },
	}
	var total Counters
	for _, p := range peers {
		c := p.node.Counters()
		for name, field := range counterSeries {
			if got, want := reg.SumWhere(name, "peer", p.id), field(c); got != want {
				t.Errorf("%s{peer=%s} = %d, Counters says %d", name, p.id, got, want)
			}
		}
		total.ForwardedReads += c.ForwardedReads
		total.Pushes += c.Pushes
		total.PushAcks += c.PushAcks
	}
	// Registry-wide sums match the cross-peer totals too.
	if got := reg.Sum("dooc_cluster_forwarded_reads_total"); got != total.ForwardedReads {
		t.Errorf("summed forwarded reads %d != %d", got, total.ForwardedReads)
	}
	if got := reg.Sum("dooc_cluster_push_acks_total"); got != total.PushAcks {
		t.Errorf("summed push acks %d != %d", got, total.PushAcks)
	}
	// Sanity: this scenario actually produced traffic on the key series.
	if total.ForwardedReads == 0 || total.Pushes == 0 || total.PushAcks == 0 {
		t.Fatalf("scenario generated no traffic: %+v", total)
	}

	// Residency gauges track the live table/replica state per peer.
	for _, p := range peers {
		st := p.node.Status()
		if got := reg.SumWhere("dooc_cluster_table_blocks", "peer", p.id); got != int64(st.TableBlocks) {
			t.Errorf("table_blocks{peer=%s} = %d, Status says %d", p.id, got, st.TableBlocks)
		}
		if got := reg.SumWhere("dooc_cluster_table_bytes", "peer", p.id); got != st.TableBytes {
			t.Errorf("table_bytes{peer=%s} = %d, Status says %d", p.id, got, st.TableBytes)
		}
		if got := reg.SumWhere("dooc_cluster_replica_blocks", "peer", p.id); got != int64(st.ReplicaBlocks) {
			t.Errorf("replica_blocks{peer=%s} = %d, Status says %d", p.id, got, st.ReplicaBlocks)
		}
		if got := reg.SumWhere("dooc_cluster_members", "peer", p.id); got != int64(len(st.Members)) {
			t.Errorf("members{peer=%s} = %d, Status says %d", p.id, got, len(st.Members))
		}
	}
}

// findNonOwner returns the ID of some peer outside the block's fetch walk
// (there is always one in a 4-peer cluster with a 3-owner walk).
func findNonOwner(r *Ring, array string, block int) string {
	owners := r.Owners(BlockKey(array, block), fetchCandidates)
	for _, id := range r.Members() {
		hit := false
		for _, o := range owners {
			if o == id {
				hit = true
				break
			}
		}
		if !hit {
			return id
		}
	}
	return owners[len(owners)-1]
}
