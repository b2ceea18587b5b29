package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrm/internal/ckpt"
	"socrm/internal/soc"
)

func newCkptStore(t *testing.T) *ckpt.Store {
	t.Helper()
	st, err := ckpt.Open(ckpt.Options{Dir: t.TempDir(), Sync: ckpt.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// recordingSink captures the checkpoint stream in memory.
type recordingSink struct {
	pushed map[string][]byte
	drops  []string
}

func (rs *recordingSink) Push(id string, data []byte) {
	if rs.pushed == nil {
		rs.pushed = map[string][]byte{}
	}
	rs.pushed[id] = data
}
func (rs *recordingSink) Drop(id string) { rs.drops = append(rs.drops, id) }

// TestCheckpointRestoreBitIdentical is the durability twin of the PR 7
// golden migration test: a session checkpointed to disk, lost to a "crash"
// (a fresh server), and recovered from the store must decide bit-identically
// to a twin that never crashed — across every snapshottable policy.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	const half = 30
	for _, policy := range []string{PolicyOnlineIL, PolicyOfflineIL, "interactive", "ondemand"} {
		t.Run(policy, func(t *testing.T) {
			srvA, _, _ := newTestServer(t, nil)
			srvB, _, _ := newTestServer(t, nil)
			store := newCkptStore(t)
			seed := int64(99)

			ctrl, err := srvA.CreateSession(CreateRequest{Policy: policy, ID: "twin", Seed: &seed})
			if err != nil {
				t.Fatal(err)
			}
			crash, err := srvA.CreateSession(CreateRequest{Policy: policy, ID: "victim", Seed: &seed})
			if err != nil {
				t.Fatal(err)
			}

			want, _ := stepClosedLoop(t, srvA, ctrl.ID, ctrl.Start, 0, 2*half)
			got, cfg := stepClosedLoop(t, srvA, crash.ID, crash.Start, 0, half)

			// Checkpoint with no intervening steps, then "crash": srvA is
			// abandoned and srvB recovers from the store alone.
			ck := NewCheckpointer(srvA, CheckpointerOptions{Store: store, Interval: time.Hour})
			if _, err := ck.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			restored, _, damaged, err := srvB.RecoverFromStore(store, nil)
			if err != nil || len(damaged) != 0 {
				t.Fatalf("recover: restored=%d damaged=%v err=%v", restored, damaged, err)
			}
			if restored != 2 {
				t.Fatalf("recovered %d sessions, want 2", restored)
			}

			rest, _ := stepClosedLoop(t, srvB, crash.ID, cfg, half, half)
			got = append(got, rest...)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d diverged after checkpoint restore: got %+v, want %+v",
						i, got[i], want[i])
				}
			}
		})
	}
}

func TestCheckpointerTombstones(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	store := newCkptStore(t)
	sink := &recordingSink{}
	ck := NewCheckpointer(srv, CheckpointerOptions{Store: store, Sink: sink, Interval: time.Hour})

	a, err := srv.CreateSession(CreateRequest{Policy: "ondemand", ID: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CreateSession(CreateRequest{Policy: "ondemand", ID: "b"}); err != nil {
		t.Fatal(err)
	}
	stepClosedLoop(t, srv, "a", a.Start, 0, 3)
	if n, err := ck.Flush(); err != nil || n != 2 {
		t.Fatalf("first flush wrote %d (err %v), want 2", n, err)
	}
	if len(sink.pushed) != 2 {
		t.Fatalf("sink saw %d pushes, want 2", len(sink.pushed))
	}

	// A clean flush with nothing dirty writes nothing.
	if n, _ := ck.Flush(); n != 0 {
		t.Fatalf("idle flush wrote %d records", n)
	}

	if _, err := srv.CloseSession("b"); err != nil {
		t.Fatal(err)
	}
	if n, err := ck.Flush(); err != nil || n != 1 {
		t.Fatalf("tombstone flush wrote %d (err %v), want 1", n, err)
	}
	if len(sink.drops) != 1 || sink.drops[0] != "b" {
		t.Fatalf("sink drops = %v, want [b]", sink.drops)
	}
	live, _, _ := store.Stats()
	if live != 1 {
		t.Fatalf("store holds %d live sessions after close, want 1", live)
	}
}

// TestCompactionVsTickerFlush races explicit store compactions against the
// checkpointer's ticker flushes and live stepping (run under -race in CI).
// The invariant: however the compactions interleave with appends, a final
// flush + recovery restores every session at its exact step count.
func TestCompactionVsTickerFlush(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	store := newCkptStore(t)
	ck := NewCheckpointer(srv, CheckpointerOptions{Store: store, Interval: 2 * time.Millisecond})
	ck.Start()

	const n = 8
	starts := make([]soc.Config, n)
	for i := 0; i < n; i++ {
		created, err := srv.CreateSession(CreateRequest{Policy: "ondemand", ID: fmt.Sprintf("c-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		starts[i] = created.Start
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := starts[i]
			for off := 0; !stop.Load(); off++ {
				_, cfg = stepClosedLoop(t, srv, fmt.Sprintf("c-%d", i), cfg, off, 1)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := store.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	ck.Stop()
	if _, err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	srv2, _, _ := newTestServer(t, nil)
	restored, _, damaged, err := srv2.RecoverFromStore(store, nil)
	if err != nil || len(damaged) != 0 {
		t.Fatalf("recover: restored=%d damaged=%v err=%v", restored, damaged, err)
	}
	if restored != n {
		t.Fatalf("recovered %d sessions, want %d", restored, n)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c-%d", i)
		want, _ := srv.Info(id)
		got, err := srv2.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Steps != want.Steps {
			t.Fatalf("session %s recovered at step %d, want %d", id, got.Steps, want.Steps)
		}
	}
}

func TestSnapshotMeta(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	a, _ := srv.CreateSession(CreateRequest{Policy: "ondemand", ID: "meta-check"})
	stepClosedLoop(t, srv, a.ID, a.Start, 0, 4)
	data, err := srv.ExportSession(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	id, epoch, steps, err := SnapshotMeta(data)
	if err != nil || id != "meta-check" || steps != 4 {
		t.Fatalf("SnapshotMeta = (%q, %d, %v), want (meta-check, 4, nil)", id, steps, err)
	}
	if epoch != 1 {
		t.Fatalf("SnapshotMeta epoch = %d, want 1 (first ownership generation)", epoch)
	}
	if _, _, _, err := SnapshotMeta([]byte("garbage")); err == nil {
		t.Fatal("SnapshotMeta accepted garbage")
	}
}

func TestReplicaPromotionOnStep(t *testing.T) {
	src, _, _ := newTestServer(t, nil)
	dst, dstTS, _ := newTestServer(t, nil)
	dstURL := dstTS.URL

	a, err := src.CreateSession(CreateRequest{Policy: "ondemand", ID: "roam"})
	if err != nil {
		t.Fatal(err)
	}
	_, cfg := stepClosedLoop(t, src, a.ID, a.Start, 0, 5)
	snapData, err := src.ExportSession(a.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Push the replica over HTTP, as the replicator does.
	req, _ := http.NewRequest(http.MethodPost, dstURL+"/v1/replica/roam", bytes.NewReader(snapData))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("replica push status %d", resp.StatusCode)
	}
	if dst.ReplicaCount() != 1 {
		t.Fatalf("replica count %d, want 1", dst.ReplicaCount())
	}

	// A GET must not promote (locate() side-effect freedom)...
	if _, err := dst.Info("roam"); err == nil {
		t.Fatal("GET-side lookup promoted the replica")
	}
	// ...but a step must.
	promotedResp, err := http.Post(dstURL+"/v1/sessions/roam/step", "application/json",
		bytes.NewReader([]byte(`{"config":{"little_freq_idx":`+"0"+`}}`)))
	if err != nil {
		t.Fatal(err)
	}
	promotedResp.Body.Close()
	if promotedResp.Header.Get(HeaderPromoted) != "1" {
		t.Fatalf("step did not signal promotion (status %d, headers %v)",
			promotedResp.StatusCode, promotedResp.Header)
	}
	if dst.ReplicaCount() != 0 {
		t.Fatal("replica still parked after promotion")
	}
	info, err := dst.Info("roam")
	if err != nil {
		t.Fatalf("promoted session missing: %v", err)
	}
	if info.Steps != 6 { // 5 checkpointed + the promoting step
		t.Fatalf("promoted session at step %d, want 6", info.Steps)
	}
	_ = cfg

	// A second push for the same id after promotion parks again and a
	// direct-call step path promotion also works.
	dst2, _, _ := newTestServer(t, nil)
	dst2.PutReplica("roam", snapData)
	if _, _, err := dst2.Step("roam", &StepTelemetry{}); err != nil {
		t.Fatalf("direct step did not promote: %v", err)
	}
}

func TestReplicaPromotionPausedWhileDrainingOrRecovering(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	src, _, _ := newTestServer(t, nil)
	a, _ := src.CreateSession(CreateRequest{Policy: "ondemand", ID: "held"})
	_ = a
	snapData, err := src.ExportSession("held")
	if err != nil {
		t.Fatal(err)
	}
	srv.PutReplica("held", snapData)

	srv.SetRecovering(true)
	if _, _, err := srv.Step("held", &StepTelemetry{}); err == nil {
		t.Fatal("promotion fired while recovering")
	}
	srv.SetRecovering(false)
	srv.BeginDrain()
	if _, _, err := srv.Step("held", &StepTelemetry{}); err == nil {
		t.Fatal("promotion fired while draining")
	}
}

func TestReadyzRecoveringGate(t *testing.T) {
	srv, ts, _ := newTestServer(t, nil)
	url := ts.URL
	srv.SetRecovering(true)
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d while recovering, want 503", resp.StatusCode)
	}
	srv.SetRecovering(false)
	resp, err = http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d after recovery, want 200", resp.StatusCode)
	}
}

// TestRecoverSkipsLiveSessions: recovery must not clobber a session that
// already exists (e.g. its replica was promoted elsewhere and migrated back
// before the store replay ran).
func TestRecoverSkipsLiveSessions(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	store := newCkptStore(t)
	a, _ := srv.CreateSession(CreateRequest{Policy: "ondemand", ID: "dup"})
	stepClosedLoop(t, srv, a.ID, a.Start, 0, 2)
	ck := NewCheckpointer(srv, CheckpointerOptions{Store: store, Interval: time.Hour})
	if _, err := ck.Flush(); err != nil {
		t.Fatal(err)
	}
	restored, _, _, err := srv.RecoverFromStore(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("recovery re-imported %d live sessions", restored)
	}
	if info, _ := srv.Info("dup"); info.Steps != 2 {
		t.Fatalf("live session clobbered: steps = %d", info.Steps)
	}
}

// TestCreateAfterRecoverySkipsResidentIDs: a restarted process numbers
// auto-named sessions from scratch, so the recovered s-1 and s-2 must be
// skipped — the first create without an id succeeds as s-3, not 409.
func TestCreateAfterRecoverySkipsResidentIDs(t *testing.T) {
	srvA, _, _ := newTestServer(t, nil)
	store := newCkptStore(t)
	for _, want := range []string{"s-1", "s-2"} {
		created, err := srvA.CreateSession(CreateRequest{Policy: "ondemand"})
		if err != nil || created.ID != want {
			t.Fatalf("create = %q (err %v), want %q", created.ID, err, want)
		}
	}
	ck := NewCheckpointer(srvA, CheckpointerOptions{Store: store, Interval: time.Hour})
	if _, err := ck.Flush(); err != nil {
		t.Fatal(err)
	}

	srvB, _, _ := newTestServer(t, nil)
	if restored, _, _, err := srvB.RecoverFromStore(store, nil); err != nil || restored != 2 {
		t.Fatalf("recover: restored=%d err=%v, want 2", restored, err)
	}
	created, err := srvB.CreateSession(CreateRequest{Policy: "ondemand"})
	if err != nil {
		t.Fatalf("first create after recovery: %v", err)
	}
	if created.ID != "s-3" {
		t.Fatalf("first create after recovery = %q, want s-3", created.ID)
	}
	if n := srvB.SessionCount(); n != 3 {
		t.Fatalf("server holds %d sessions, want 3", n)
	}
}
