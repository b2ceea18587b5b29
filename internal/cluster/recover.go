package cluster

import (
	"context"
	"net/http"
	"time"

	"socrm/internal/ckpt"
	"socrm/internal/serve"
)

// RecoverReport summarizes a checkpoint-store recovery pass.
type RecoverReport struct {
	// Restored sessions were re-imported from the store.
	Restored int
	// Skipped sessions were found alive on a peer (their replica was
	// promoted while this backend was down) and were NOT re-imported —
	// re-importing would fork the session into two diverging copies.
	Skipped int
	// Damaged carries the store's per-segment damage notes (torn tails,
	// CRC failures, missing segments); intact records were still replayed.
	Damaged []string
}

// Recover replays a backend's checkpoint store into srv at startup through
// serve.Server.RecoverFromStore, asking the peers before re-importing each
// session whether it is already live elsewhere: a crash long enough for the
// router to fail this backend over means the standbys promoted replicas,
// and the promoted copy — which kept stepping — outranks our checkpoint.
// Such sessions are skipped and tombstoned in the store (the live owner
// checkpoints them now). With no peers (standalone), every stored session
// restores. Each peer check is one shared peer call under timeout
// (0 = 2s).
//
// Callers hold srv in recovering mode (SetRecovering) around this call so
// /readyz stays false until the replay completes.
func Recover(srv *serve.Server, store *ckpt.Store, self string, peers []string, client *http.Client, timeout time.Duration) (RecoverReport, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	p := newPeer(client, timeout)
	liveOnPeer := func(id string) bool {
		for _, o := range peers {
			if o == "" || o == self {
				continue
			}
			if _, status, _, err := p.call(context.Background(), http.MethodGet, o, "/v1/sessions/"+id, nil, ""); err == nil && status == http.StatusOK {
				return true
			}
		}
		return false
	}
	var rep RecoverReport
	var err error
	rep.Restored, rep.Skipped, rep.Damaged, err = srv.RecoverFromStore(store, liveOnPeer)
	return rep, err
}
