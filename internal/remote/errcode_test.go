package remote_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dooc/internal/cluster"
	"dooc/internal/errcode"
	"dooc/internal/jobs"
	"dooc/internal/jobstore"
	"dooc/internal/proxy"
	"dooc/internal/remote"
	"dooc/internal/storage"
)

// sentinels holds every sentinel declared through errcode; entry i carries
// code i+1. Extend it with each code appended to errcode.
var sentinels = []error{
	storage.ErrClosed, storage.ErrArrayExists, storage.ErrNoArray, storage.ErrImmutable, storage.ErrScratchQuota,
	jobs.ErrQueueFull, jobs.ErrQuotaExceeded, jobs.ErrDraining, jobs.ErrUnknownJob, jobs.ErrCancelled, jobs.ErrNoProxy,
	proxy.ErrUnknownProxy, proxy.ErrProxyGone, proxy.ErrProxyQuota, proxy.ErrNoRefs, proxy.ErrClosed,
	jobstore.ErrClosed, jobstore.ErrPoisoned,
	cluster.ErrClosed,
}

// failingPeer answers a peer-del of an array with errs[array].
type failingPeer struct{ errs map[string]error }

func (p failingPeer) PeerPut(string, int, uint64, []byte, bool) (bool, error) { return false, nil }
func (p failingPeer) PeerGet(string, int) ([]byte, uint64, bool, error)       { return nil, 0, false, nil }
func (p failingPeer) PeerDelete(array string) error                           { return p.errs[array] }
func (p failingPeer) PeerViewExchange(v remote.PeerView) remote.PeerView      { return v }

// TestErrorCodesRoundTripOverWire sends every coded sentinel, wrapped, from
// a server handler to a client: each arrives errors.Is its own sentinel and
// no other one (the four ErrClosed values included). An error with a code
// this build does not know, and one without a code, arrive as plain errors
// carrying the server's message.
func TestErrorCodesRoundTripOverWire(t *testing.T) {
	if got := errcode.Of(sentinels[len(sentinels)-1]); got != errcode.ClusterClosed {
		t.Fatalf("last sentinel has code %d, want the last code %d", got, errcode.ClusterClosed)
	}
	errs := map[string]error{
		"unknown-code": &errcode.Error{Code: 255, Msg: "future: a code from a newer build"},
		"no-code":      errors.New("plain: no code"),
	}
	for i, s := range sentinels {
		if got := errcode.Of(s); got != errcode.Code(i+1) {
			t.Fatalf("sentinel %d (%v) has code %d, want %d", i, s, got, i+1)
		}
		errs[fmt.Sprint(i)] = fmt.Errorf("handler: %w", s)
	}
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := remote.ListenOptions(st, "127.0.0.1:0", remote.ServerOptions{Peer: failingPeer{errs}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := remote.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for name, sent := range errs {
		got := cl.PeerDelete(name)
		if got == nil || !strings.HasSuffix(got.Error(), sent.Error()) {
			t.Fatalf("%s: got %v, want the message %q", name, got, sent)
		}
		for _, s := range sentinels {
			if want := errors.Is(sent, s); errors.Is(got, s) != want {
				t.Errorf("%s: errors.Is(%v, %v) = %v, want %v", name, got, s, !want, want)
			}
		}
	}
}
