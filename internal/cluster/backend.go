package cluster

import (
	"fmt"
	"net/http"
	"time"

	"socrm/internal/serve"
)

// Drainer is the backend-side half of graceful removal: POST /admin/drain
// (or SIGTERM in backend mode) flips the server unready, stops admission,
// and streams every resident session to the peers that will own it — the
// same consistent-hash ring the router uses, over the same peer URLs, so
// sessions land exactly where the router's next probe will look for them.
type Drainer struct {
	Server *serve.Server
	// Self is this backend's own advertised URL, excluded from targets.
	Self string
	// Peers are the other backends' base URLs (the same list every cluster
	// member and the router were started with).
	Peers []string
	// Client performs the handoff HTTP calls through the cluster's shared
	// peer call (nil = 10s-timeout client); peer readiness is probed with
	// the client itself.
	Client *http.Client
	// CallTimeout bounds each handoff HTTP call (0 = 5s).
	CallTimeout time.Duration
}

// DrainReport summarizes one drain pass.
type DrainReport struct {
	// Drained sessions were handed to a peer.
	Drained int `json:"drained"`
	// Failed sessions could not be placed anywhere and were re-imported
	// locally (they drain on a later pass, or die with the process).
	Failed int `json:"failed"`
	// Remaining sessions are still resident after the pass.
	Remaining int `json:"remaining"`
	// Targets are the ready peers sessions were streamed to.
	Targets []string `json:"targets"`
}

// Drain stops admission and streams every session to the ready peers. Each
// session is detached (removed + closed + snapshotted in one step — the
// per-session handoff lock), handed off to its ring owner among the targets
// or the next one that takes it, and re-imported locally if every target
// refuses, so a drain never loses a session silently. A target that already
// hosts a fresher live copy counts as drained: the stale local copy is
// dropped. Sessions keep stepping until the moment their own detach, and a
// step racing its session's handoff fails with a retryable conflict that
// the router's relocation chase absorbs.
func (d *Drainer) Drain() (DrainReport, error) {
	d.Server.BeginDrain()
	p := newPeer(d.Client, d.CallTimeout)
	var targets []string
	for _, addr := range d.Peers {
		if addr == "" || addr == d.Self {
			continue
		}
		if up, _ := p.ready(addr, p.timeout); up {
			targets = append(targets, addr)
		}
	}
	rep := DrainReport{Targets: targets}
	if len(targets) == 0 {
		rep.Remaining = d.Server.SessionCount()
		return rep, fmt.Errorf("drain: no ready peers; %d sessions stay resident", rep.Remaining)
	}
	ring := NewRing(targets)
	// refusals counts import rejections per reachable peer across the whole
	// pass; a peer past defaultRefusalLimit is skipped for every later
	// session.
	refusals := make(map[string]int, len(targets))
	for _, id := range d.Server.SessionIDs() {
		env, err := d.Server.DetachSession(id)
		if err != nil {
			// Already gone (closed or migrated away concurrently).
			continue
		}
		if handoff(p.call, id, d.Self, env, append([]string{ring.Owner(id)}, ring.Nodes()...), refusals) != "" {
			rep.Drained++
			continue
		}
		// Nobody took it: bring it home rather than drop it. The local import
		// bypasses the draining gate by design; it fails only if the session
		// is truly lost.
		_, _ = d.Server.ImportSession(env)
		rep.Failed++
	}
	rep.Remaining = d.Server.SessionCount()
	return rep, nil
}

// BackendHandler wraps a backend's serving routes with the cluster admin
// surface: POST /admin/drain runs the drainer and reports what moved.
func BackendHandler(d *Drainer) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", d.Server.Handler())
	mux.HandleFunc("POST /admin/drain", func(w http.ResponseWriter, _ *http.Request) {
		rep, err := d.Drain()
		status := http.StatusOK
		if err != nil {
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"drained":%d,"failed":%d,"remaining":%d}`+"\n",
			rep.Drained, rep.Failed, rep.Remaining)
	})
	return mux
}
