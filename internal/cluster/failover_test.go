package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrm/internal/chaos"
	"socrm/internal/ckpt"
	"socrm/internal/serve"
	"socrm/internal/soc"
)

// haBackend is one backend with the full fault-tolerance stack wired:
// checkpoint store, checkpointer, and replicator pushing to its standbys.
type haBackend struct {
	srv   *serve.Server
	store *ckpt.Store
	ck    *serve.Checkpointer
	repl  *Replicator
	ts    *httptest.Server
}

// newHACluster stands up n backends with checkpointing + replication and a
// hardened router in front of them.
func newHACluster(t *testing.T, n int, ckptInterval time.Duration) ([]*haBackend, *Router, *httptest.Server) {
	t.Helper()
	p := soc.NewXU3()
	backends := make([]*haBackend, n)
	urls := make([]string, n)
	for i := range backends {
		srv := serve.New(serve.Options{Platform: p})
		store, err := ckpt.Open(ckpt.Options{Dir: t.TempDir(), Sync: ckpt.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		dr := &Drainer{Server: srv}
		ts := httptest.NewServer(BackendHandler(dr))
		t.Cleanup(ts.Close)
		dr.Self = ts.URL
		backends[i] = &haBackend{srv: srv, store: store, ts: ts}
		urls[i] = ts.URL
	}
	for i, b := range backends {
		b.repl = NewReplicator(ReplicatorOptions{
			Self:     urls[i],
			Peers:    urls,
			Registry: b.srv.Metrics(),
		})
		t.Cleanup(b.repl.Stop)
		b.ck = serve.NewCheckpointer(b.srv, serve.CheckpointerOptions{
			Store:    b.store,
			Sink:     b.repl,
			Interval: ckptInterval,
		})
		b.ck.Start()
		t.Cleanup(b.ck.Stop)
		t.Cleanup(func() { b.store.Close() })
	}
	rt := NewRouter(RouterOptions{
		Backends:     urls,
		CallTimeout:  2 * time.Second,
		RetryBackoff: 5 * time.Millisecond,
	})
	if !rt.Probe() {
		t.Fatal("initial probe found no change (expected ring build)")
	}
	t.Cleanup(rt.Stop)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return backends, rt, front
}

// stepOnce steps a session once through the router and returns the HTTP
// status and the session's step count.
func stepOnce(t *testing.T, front, id string) (int, uint64) {
	t.Helper()
	var resp serve.StepResponse
	code := postJSON(t, front+"/v1/sessions/"+id+"/step", telemetry(), &resp)
	return code, resp.Step
}

// routerCounter reads one of the router's counters by name.
func routerCounter(rt *Router, name string) float64 {
	return rt.Metrics().Counter(name, "").Value()
}

// TestFailoverSoak is the chaos soak: concurrent steppers hammer a 3-node
// cluster with checkpointing + replication on, one backend dies abruptly,
// and afterwards every session must answer steps — the dead node's via
// replica promotion on its standby — with zero lost sessions, zero failed
// handoffs, and staleness bounded by the last completed checkpoint.
func TestFailoverSoak(t *testing.T) {
	backends, rt, front := newHACluster(t, 3, 30*time.Millisecond)

	const n = 24
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var created serve.CreateResponse
		if code := postJSON(t, front.URL+"/v1/sessions",
			serve.CreateRequest{Policy: "interactive"}, &created); code != http.StatusCreated {
			t.Fatalf("create = %d", code)
		}
		ids = append(ids, created.ID)
	}

	// Storm phase: concurrent steppers across all sessions.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i = (i + 4) % n {
				var resp serve.StepResponse
				postJSON(t, front.URL+"/v1/sessions/"+ids[i]+"/step", telemetry(), &resp)
			}
		}(w)
	}
	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Quiesce: one explicit flush per backend bounds staleness at exactly
	// this point, then wait until every session's replica is parked on its
	// standby (the replicator queues drain asynchronously).
	for _, b := range backends {
		if _, err := b.ck.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		parked := 0
		for _, b := range backends {
			parked += b.srv.ReplicaCount()
		}
		if parked >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas never drained: %d of %d parked", parked, n)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Record the authoritative step counts, then kill backend 0 abruptly.
	steps := map[string]uint64{}
	for _, id := range ids {
		code, s := stepOnce(t, front.URL, id)
		if code != http.StatusOK {
			t.Fatalf("pre-kill step of %s = %d", id, code)
		}
		steps[id] = s
	}
	victim := backends[0]
	victimResident := victim.srv.SessionCount()
	if victimResident == 0 {
		t.Fatal("victim backend holds no sessions; kill would prove nothing")
	}
	// The pre-kill steps above dirtied every session again; flush once more
	// and let the replicas catch up so the bound stays "≤ one interval".
	for _, b := range backends {
		if _, err := b.ck.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	}
	time.Sleep(100 * time.Millisecond)
	victim.ck.Stop()
	victim.repl.Stop()
	victim.ts.Close()

	// The router needs FailAfter consecutive silent probe misses.
	changed := false
	for i := 0; i < 5 && !changed; i++ {
		changed = rt.Probe()
	}
	if !changed {
		t.Fatal("router never removed the dead backend")
	}
	if rt.Ring().Has(victim.ts.URL) {
		t.Fatal("dead backend still on the ring")
	}

	// Every session must answer, and none may have regressed past one
	// checkpoint interval (zero regression here: state was flushed and
	// replicated after the last step).
	for _, id := range ids {
		code, s := stepOnce(t, front.URL, id)
		if code != http.StatusOK {
			t.Fatalf("post-kill step of %s = %d (session lost)", id, code)
		}
		if s != steps[id]+1 {
			t.Fatalf("session %s resumed at step %d, want %d (stale beyond bound)",
				id, s, steps[id]+1)
		}
	}
	if got := routerCounter(rt, "socrouted_promotions_total"); got < float64(victimResident) {
		t.Fatalf("promotions = %v, want >= %d (victim's residents)", got, victimResident)
	}
	if got := routerCounter(rt, "socrouted_failed_handoffs_total"); got != 0 {
		t.Fatalf("failed handoffs = %v, want 0", got)
	}
}

// TestChaosLatencyFailover: a backend that stops answering (injected
// latency far beyond any deadline) must cost bounded per-call deadlines and
// then fail out of the ring — steps resume on the standby within the retry
// budget instead of hanging for the injected latency.
func TestChaosLatencyFailover(t *testing.T) {
	p := soc.NewXU3()
	inj := chaos.New(chaos.Options{Seed: 11, Latency: 3 * time.Second, LatencyP: 1})
	inj.SetEnabled(false) // healthy during setup

	// Backend A (will be wedged) and backend B (standby).
	srvA := serve.New(serve.Options{Platform: p})
	drA := &Drainer{Server: srvA}
	tsA := httptest.NewServer(inj.Middleware(BackendHandler(drA)))
	defer func() {
		// Handlers may be parked in injected sleeps; sever their
		// connections so Close doesn't wait out the chaos latency.
		tsA.CloseClientConnections()
		tsA.Close()
	}()
	srvB := serve.New(serve.Options{Platform: p})
	drB := &Drainer{Server: srvB}
	tsB := httptest.NewServer(BackendHandler(drB))
	defer tsB.Close()

	// A two-backend cluster gives each session exactly one standby, however
	// many the default fanout asks for.
	replA := NewReplicator(ReplicatorOptions{Self: tsA.URL, Peers: []string{tsA.URL, tsB.URL}})
	replA.Stop()
	if got := replA.Fanout(); got != 1 {
		t.Fatalf("replicator fanout with one peer = %d, want 1", got)
	}

	rt := NewRouter(RouterOptions{
		Backends:     []string{tsA.URL, tsB.URL},
		CallTimeout:  150 * time.Millisecond,
		ProbeTimeout: 100 * time.Millisecond,
		RetryBackoff: 5 * time.Millisecond,
	})
	defer rt.Stop()
	rt.Probe()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Create sessions until one lands on A, then replicate it to B by hand
	// (the unit stands in for the full checkpoint pipeline here).
	var onA string
	for i := 0; i < 64 && onA == ""; i++ {
		var created serve.CreateResponse
		if code := postJSON(t, front.URL+"/v1/sessions",
			serve.CreateRequest{Policy: "interactive"}, &created); code != http.StatusCreated {
			t.Fatalf("create = %d", code)
		}
		if _, err := srvA.Info(created.ID); err == nil {
			onA = created.ID
		}
	}
	if onA == "" {
		t.Fatal("no session landed on backend A")
	}
	snap, err := srvA.ExportSession(onA)
	if err != nil {
		t.Fatal(err)
	}
	srvB.PutReplica(onA, snap)

	inj.SetEnabled(true) // wedge A: every request now stalls past every deadline

	// Drive steps and probes until the session answers from B. The whole
	// recovery must complete in a small multiple of the call/probe
	// deadlines — well under even one injected stall.
	start := time.Now()
	recovered := false
	for time.Since(start) < 10*time.Second && !recovered {
		rt.Probe()
		callStart := time.Now()
		var resp serve.StepResponse
		code := postJSON(t, front.URL+"/v1/sessions/"+onA+"/step", telemetry(), &resp)
		if d := time.Since(callStart); d > 5*time.Second {
			t.Fatalf("routed step blocked %v despite deadlines", d)
		}
		if code == http.StatusOK {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("step never failed over to the standby (took > 10s)")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("failover took %v", elapsed)
	}
	if _, err := srvB.Info(onA); err != nil {
		t.Fatalf("session not promoted on standby: %v", err)
	}
}

// TestKillRestartRecovery: a backend that crashes and restarts replays its
// checkpoint store, re-importing every session EXCEPT those a peer already
// promoted while it was down — the split-brain guard.
func TestKillRestartRecovery(t *testing.T) {
	p := soc.NewXU3()
	store, err := ckpt.Open(ckpt.Options{Dir: t.TempDir(), Sync: ckpt.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// "First life": three sessions, checkpointed.
	srv1 := serve.New(serve.Options{Platform: p})
	for i := 0; i < 3; i++ {
		created, err := srv1.CreateSession(serve.CreateRequest{
			Policy: "interactive", ID: fmt.Sprintf("s-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry()
		if _, _, err := srv1.Step(created.ID, &tel); err != nil {
			t.Fatal(err)
		}
	}
	ck := serve.NewCheckpointer(srv1, serve.CheckpointerOptions{Store: store, Interval: time.Hour})
	if _, err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	// While "down", a peer promoted s-1 (two steps: strictly ahead).
	peer := serve.New(serve.Options{Platform: p})
	snap, err := srv1.ExportSession("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.ImportSession(snap); err != nil {
		t.Fatal(err)
	}
	tel := telemetry()
	if _, _, err := peer.Step("s-1", &tel); err != nil {
		t.Fatal(err)
	}
	peerTS := httptest.NewServer(peer.Handler())
	defer peerTS.Close()

	// "Second life": fresh server, recover from the store with the peer
	// check on.
	srv2 := serve.New(serve.Options{Platform: p})
	srv2.SetRecovering(true)
	rep, err := Recover(srv2, store, "http://self", []string{peerTS.URL}, nil, time.Second)
	srv2.SetRecovering(false)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.Damaged) != 0 {
		t.Fatalf("unexpected damage: %v", rep.Damaged)
	}
	if rep.Restored != 2 || rep.Skipped != 1 {
		t.Fatalf("recover = restored %d skipped %d, want 2/1", rep.Restored, rep.Skipped)
	}
	if _, err := srv2.Info("s-1"); err == nil {
		t.Fatal("recovery resurrected a session the peer owns (split brain)")
	}
	for _, id := range []string{"s-0", "s-2"} {
		info, err := srv2.Info(id)
		if err != nil {
			t.Fatalf("session %s not recovered: %v", id, err)
		}
		if info.Steps != 1 {
			t.Fatalf("session %s recovered at step %d, want 1", id, info.Steps)
		}
	}
	// The skipped session's record was tombstoned: a second restart must
	// not re-ask the peer.
	live, _, _ := store.Stats()
	if live != 2 {
		t.Fatalf("store still holds %d live records, want 2", live)
	}
}

// TestProbeDebounce: silent probe failures flip a backend only after
// FailAfter consecutive misses; an answered 503 flips it immediately.
func TestProbeDebounce(t *testing.T) {
	var mode atomic.Int32 // 0 = ok, 1 = 503, 2 handled by Close
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && mode.Load() == 1 {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	}))
	defer ts.Close()
	rt := NewRouter(RouterOptions{Backends: []string{ts.URL}, FailAfter: 3,
		ProbeTimeout: 100 * time.Millisecond})
	defer rt.Stop()
	if !rt.Probe() {
		t.Fatal("initial probe built no ring")
	}

	// An answered 503 is authoritative: one probe removes it.
	mode.Store(1)
	if !rt.Probe() {
		t.Fatal("503 answer did not remove the backend immediately")
	}
	mode.Store(0)
	if !rt.Probe() {
		t.Fatal("recovery probe did not restore the backend")
	}

	// Silent death: the first two misses keep it ready, the third flips.
	ts.Close()
	if rt.Probe() {
		t.Fatal("first silent miss flipped the backend")
	}
	if rt.Probe() {
		t.Fatal("second silent miss flipped the backend")
	}
	if !rt.Probe() {
		t.Fatal("third silent miss did not flip the backend")
	}
}

// TestDrainerSkipsRefusingPeer: a peer that answers ready but refuses
// imports is abandoned after defaultRefusalLimit refusals instead of being
// offered every remaining session.
func TestDrainerSkipsRefusingPeer(t *testing.T) {
	p := soc.NewXU3()
	src := serve.New(serve.Options{Platform: p})
	for i := 0; i < 10; i++ {
		if _, err := src.CreateSession(serve.CreateRequest{
			Policy: "ondemand", ID: fmt.Sprintf("d-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	var refuserHits atomic.Int32
	refuser := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/sessions/import" {
			refuserHits.Add(1)
			http.Error(w, `{"error":"full"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok") // readyz
	}))
	defer refuser.Close()

	sink := serve.New(serve.Options{Platform: p})
	sinkTS := httptest.NewServer(sink.Handler())
	defer sinkTS.Close()

	dr := &Drainer{
		Server: src,
		Self:   "http://self",
		Peers:  []string{refuser.URL, sinkTS.URL},
	}
	rep, err := dr.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if rep.Drained != 10 || rep.Failed != 0 {
		t.Fatalf("drain = %+v, want all 10 drained past the refusing peer", rep)
	}
	if sink.SessionCount() != 10 {
		t.Fatalf("sink holds %d sessions, want 10", sink.SessionCount())
	}
	if hits := refuserHits.Load(); hits > defaultRefusalLimit {
		t.Fatalf("refusing peer was offered %d imports, want <= %d", hits, defaultRefusalLimit)
	}
}

// TestChaosTornCheckpointWrites: a crash that tears writes during the
// FINAL flush must still recover every session on restart — torn records
// cost staleness (the sessions fall back to their previous intact
// checkpoint), never a lost session.
func TestChaosTornCheckpointWrites(t *testing.T) {
	p := soc.NewXU3()
	inj := chaos.New(chaos.Options{Seed: 21, TornP: 0.5})
	inj.SetEnabled(false) // healthy until the "crashing" flush
	dir := t.TempDir()
	store, err := ckpt.Open(ckpt.Options{Dir: dir, Sync: ckpt.SyncNone, MaimWrites: inj.TornWrites()})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Options{Platform: p})
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := srv.CreateSession(serve.CreateRequest{
			Policy: "interactive", ID: fmt.Sprintf("t-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	ck := serve.NewCheckpointer(srv, serve.CheckpointerOptions{Store: store, Interval: time.Hour})
	step := func() {
		for i := 0; i < n; i++ {
			tel := telemetry()
			if _, _, err := srv.Step(fmt.Sprintf("t-%d", i), &tel); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Three clean rounds: every session has intact records at steps 1..3.
	for round := 0; round < 3; round++ {
		step()
		if _, err := ck.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// The crashing round: the fault schedule tears roughly half the
	// records of this flush mid-write. A tear truncates the rest of the
	// segment's tail too — exactly what a real crash leaves behind.
	step()
	inj.SetEnabled(true)
	if _, err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if inj.Torn.Load() == 0 {
		t.Fatal("fault schedule never tore a write; test proves nothing")
	}

	store2, err := ckpt.Open(ckpt.Options{Dir: dir, Sync: ckpt.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2 := serve.New(serve.Options{Platform: p})
	restored, _, _, err := srv2.RecoverFromStore(store2, nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if restored != n {
		t.Fatalf("recovered %d sessions through torn writes, want %d", restored, n)
	}
	for i := 0; i < n; i++ {
		info, err := srv2.Info(fmt.Sprintf("t-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if info.Steps < 3 || info.Steps > 4 {
			t.Fatalf("session t-%d recovered at step %d, want 3 (pre-tear) or 4", i, info.Steps)
		}
	}
}
