package serve

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrm/internal/il"
	"socrm/internal/oracle"
	"socrm/internal/regtree"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// stepClosedLoop drives a session through the platform closed loop: execute
// the decided configuration, post the resulting counters, repeat. The
// snippet schedule is indexed by the absolute step number so a migrated
// session resumes exactly the workload its control twin sees.
func stepClosedLoop(t *testing.T, srv *Server, id string, cfg soc.Config, off, n int) ([]soc.Config, soc.Config) {
	t.Helper()
	p := soc.NewXU3()
	app := workload.MiBench(3)[0]
	out := make([]soc.Config, 0, n)
	for i := off; i < off+n; i++ {
		sn := app.Snippets[i%len(app.Snippets)]
		res := p.Execute(sn, cfg)
		next, _, err := srv.Step(id, &StepTelemetry{
			Counters: res.Counters, Config: cfg, Threads: sn.Threads,
			TimeS: res.Time, EnergyJ: res.Energy,
		})
		if err != nil {
			t.Fatalf("step %d of %s: %v", i, id, err)
		}
		out = append(out, next)
		cfg = next
	}
	return out, cfg
}

// TestMigratedSessionBitIdentical is the golden migration test: a session
// exported mid-run and imported into a different server must decide the
// exact same configuration sequence as a twin that never moved. Any state
// the snapshot drops — momentum, RLS covariance, aggregation buffers, the
// trainer's update count feeding the seed schedule — shows up here as a
// diverged config.
func TestMigratedSessionBitIdentical(t *testing.T) {
	const half = 30
	for _, policy := range []string{PolicyOnlineIL, PolicyOfflineIL, "interactive", "ondemand"} {
		t.Run(policy, func(t *testing.T) {
			srvA, _, _ := newTestServer(t, nil)
			srvB, _, _ := newTestServer(t, nil)
			seed := int64(99)

			ctrl, err := srvA.CreateSession(CreateRequest{Policy: policy, ID: "twin", Seed: &seed})
			if err != nil {
				t.Fatal(err)
			}
			mig, err := srvA.CreateSession(CreateRequest{Policy: policy, ID: "mover", Seed: &seed})
			if err != nil {
				t.Fatal(err)
			}

			want, _ := stepClosedLoop(t, srvA, ctrl.ID, ctrl.Start, 0, 2*half)
			got, cfg := stepClosedLoop(t, srvA, mig.ID, mig.Start, 0, half)

			data, err := srvA.DetachSession(mig.ID)
			if err != nil {
				t.Fatalf("detach: %v", err)
			}
			if _, _, err := srvA.Step(mig.ID, &StepTelemetry{}); err == nil {
				t.Fatal("detached session still steps on the source")
			}
			resp, err := srvB.ImportSession(data)
			if err != nil {
				t.Fatalf("import: %v", err)
			}
			if resp.ID != mig.ID || resp.Start != cfg {
				t.Fatalf("import returned id=%q start=%+v, want id=%q start=%+v",
					resp.ID, resp.Start, mig.ID, cfg)
			}

			rest, _ := stepClosedLoop(t, srvB, mig.ID, cfg, half, half)
			got = append(got, rest...)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d diverged after migration: got %+v, want %+v",
						i, got[i], want[i])
				}
			}
		})
	}
}

// withEpoch returns a copy of a session snapshot with its envelope epoch
// field rewritten in place — the comparison tool for "byte-identical modulo
// the ownership generation".
func withEpoch(t testing.TB, data []byte, epoch uint64) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	off := 6 // magic (u32) + version (u16)
	idLen := binary.LittleEndian.Uint32(out[off:])
	off += 4 + int(idLen)
	polLen := binary.LittleEndian.Uint32(out[off:])
	off += 4 + int(polLen)
	binary.LittleEndian.PutUint64(out[off:], epoch)
	return out
}

// TestSnapshotReExportByteIdentical: export → import → export must reproduce
// the exact same bytes, except the envelope epoch, which advances by exactly
// one on import (every import is an ownership transfer). Byte equality is a
// much stronger claim than behavioral equality — it proves the codec
// round-trips every field it writes, with nothing silently defaulted on the
// way back in.
func TestSnapshotReExportByteIdentical(t *testing.T) {
	srvA, _, _ := newTestServer(t, nil)
	srvB, _, _ := newTestServer(t, nil)
	seed := int64(5)
	created, err := srvA.CreateSession(CreateRequest{Policy: PolicyOnlineIL, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	stepClosedLoop(t, srvA, created.ID, created.Start, 0, 25)

	first, err := srvA.ExportSession(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvB.ImportSession(first); err != nil {
		t.Fatal(err)
	}
	second, err := srvB.ExportSession(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, firstEpoch, _, err := SnapshotMeta(first)
	if err != nil {
		t.Fatal(err)
	}
	_, secondEpoch, _, err := SnapshotMeta(second)
	if err != nil {
		t.Fatal(err)
	}
	if secondEpoch != firstEpoch+1 {
		t.Fatalf("import advanced epoch %d -> %d, want exactly +1", firstEpoch, secondEpoch)
	}
	if !bytes.Equal(withEpoch(t, first, secondEpoch), second) {
		t.Fatalf("re-export differs beyond the epoch: %d bytes vs %d bytes", len(first), len(second))
	}
}

// TestImportRejectsCorruptSnapshots covers the hostile-input edge of the
// codec: wrong magic, unsupported version, truncation, and trailing bytes
// must all be refused with a 400, never a partial session.
func TestImportRejectsCorruptSnapshots(t *testing.T) {
	srvA, _, _ := newTestServer(t, nil)
	created, err := srvA.CreateSession(CreateRequest{Policy: PolicyOnlineIL})
	if err != nil {
		t.Fatal(err)
	}
	stepClosedLoop(t, srvA, created.ID, created.Start, 0, 10)
	data, err := srvA.ExportSession(created.ID)
	if err != nil {
		t.Fatal(err)
	}

	srvB, _, _ := newTestServer(t, nil)
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, "not a session snapshot"},
		{"version mismatch", func(b []byte) []byte { b[4] ^= 0xff; return b }, "version"},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, ""},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0xAB) }, "trailing"},
		{"empty", func([]byte) []byte { return nil }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mut(append([]byte(nil), data...))
			_, err := srvB.ImportSession(mutated)
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if statusOf(err) != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%v)", statusOf(err), err)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			if srvB.SessionCount() != 0 {
				t.Fatalf("rejected import left %d sessions behind", srvB.SessionCount())
			}
		})
	}
}

// TestImportDuplicateConflicts: importing a snapshot whose id is already
// resident answers 409, the signal the router's migration chase keys on.
func TestImportDuplicateConflicts(t *testing.T) {
	srvA, _, _ := newTestServer(t, nil)
	created, err := srvA.CreateSession(CreateRequest{Policy: "ondemand"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := srvA.ExportSession(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	srvB, _, _ := newTestServer(t, nil)
	if _, err := srvB.ImportSession(data); err != nil {
		t.Fatal(err)
	}
	_, err = srvB.ImportSession(data)
	if err == nil || statusOf(err) != http.StatusConflict {
		t.Fatalf("duplicate import: err = %v, want 409", err)
	}
}

// TestDrainGatesAdmission: BeginDrain flips readiness and refuses creates
// and HTTP imports, while the direct import path — the drain-failure
// recovery route — still accepts.
func TestDrainGatesAdmission(t *testing.T) {
	srvA, _, _ := newTestServer(t, nil)
	created, err := srvA.CreateSession(CreateRequest{Policy: "interactive"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := srvA.DetachSession(created.ID)
	if err != nil {
		t.Fatal(err)
	}

	srvB, tsB, _ := newTestServer(t, nil)
	srvB.BeginDrain()
	if !srvB.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}

	resp, err := tsB.Client().Get(tsB.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}

	_, err = srvB.CreateSession(CreateRequest{Policy: "ondemand"})
	if err == nil || statusOf(err) != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: err = %v, want 503", err)
	}

	resp, err = tsB.Client().Post(tsB.URL+"/v1/sessions/import",
		"application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP import while draining = %d, want 503", resp.StatusCode)
	}

	if _, err := srvB.ImportSession(data); err != nil {
		t.Fatalf("direct import while draining (recovery path) refused: %v", err)
	}
}

// TestSnapshotHTTPRoundTrip exercises the wire surface: GET snapshot, POST
// detach, POST import, and the /admin/sessions listing a drainer walks.
func TestSnapshotHTTPRoundTrip(t *testing.T) {
	srvA, tsA, _ := newTestServer(t, nil)
	srvB, tsB, _ := newTestServer(t, nil)
	hc := tsA.Client()

	var created CreateResponse
	if err := call(hc, http.MethodPost, tsA.URL+"/v1/sessions",
		CreateRequest{Policy: PolicyOnlineIL}, &created); err != nil {
		t.Fatal(err)
	}
	stepClosedLoop(t, srvA, created.ID, created.Start, 0, 12)

	resp, err := hc.Get(tsA.URL + "/v1/sessions/" + created.ID + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET snapshot = %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = hc.Post(tsA.URL+"/v1/sessions/"+created.ID+"/detach", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST detach = %d", resp.StatusCode)
	}
	snapData := new(bytes.Buffer)
	if _, err := snapData.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if srvA.SessionCount() != 0 {
		t.Fatalf("detach left %d sessions on the source", srvA.SessionCount())
	}

	resp, err = tsB.Client().Post(tsB.URL+"/v1/sessions/import",
		"application/octet-stream", snapData)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST import = %d, want 201", resp.StatusCode)
	}
	if srvB.SessionCount() != 1 {
		t.Fatalf("import left %d sessions on the target", srvB.SessionCount())
	}

	var list struct {
		Sessions []string `json:"sessions"`
		Draining bool     `json:"draining"`
	}
	if err := call(tsB.Client(), http.MethodGet, tsB.URL+"/admin/sessions", nil, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0] != created.ID || list.Draining {
		t.Fatalf("session list = %+v, want [%s] draining=false", list, created.ID)
	}
}

// TestMigrationSoak bounces async-training sessions between two servers
// while steppers hammer them — the -race proof that the per-session handoff
// lock (remove → close → quiesce → generation-checked encode) has no torn
// interleaving with background retrains or in-flight steps.
func TestMigrationSoak(t *testing.T) {
	srvA, _, _ := newTestServer(t, func(o *Options) { o.TrainWorkers = 2 })
	srvB, _, _ := newTestServer(t, func(o *Options) { o.TrainWorkers = 1 })
	defer srvA.Close()
	defer srvB.Close()

	const nSessions = 6
	ids := make([]string, nSessions)
	for i := range ids {
		created, err := srvA.CreateSession(CreateRequest{Policy: PolicyOnlineIL})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = created.ID
	}

	p := soc.NewXU3()
	app := workload.MiBench(3)[0]
	sn := app.Snippets[0]
	cfg := p.Clamp(soc.Config{NLittle: 4, NBig: 4})
	res := p.Execute(sn, cfg)
	tel := StepTelemetry{Counters: res.Counters, Config: cfg, Threads: sn.Threads,
		TimeS: res.Time, EnergyJ: res.Energy}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				id := ids[(i+w)%nSessions]
				tl := tel
				// A step may race the session's own handoff window; both
				// servers answering not-found for an instant is expected.
				if _, _, err := srvA.Step(id, &tl); err != nil {
					tl = tel
					_, _, _ = srvB.Step(id, &tl)
				}
			}
		}(w)
	}

	for round := 0; round < 4; round++ {
		from, to := srvA, srvB
		if round%2 == 1 {
			from, to = srvB, srvA
		}
		for _, id := range ids {
			data, err := from.DetachSession(id)
			if err != nil {
				t.Fatalf("round %d detach %s: %v", round, id, err)
			}
			if _, err := to.ImportSession(data); err != nil {
				t.Fatalf("round %d import %s: %v", round, id, err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if n := srvA.SessionCount() + srvB.SessionCount(); n != nSessions {
		t.Fatalf("sessions lost in flight: %d resident, want %d", n, nSessions)
	}
	for _, id := range ids {
		tl := tel
		if _, _, err := srvA.Step(id, &tl); err != nil {
			t.Fatalf("post-soak step %s: %v", id, err)
		}
	}
}

// TestDetachQuiescesTraining: detaching right after a step that schedules a
// background retrain must still produce a self-consistent snapshot that the
// target accepts — the encode-retry generation check in action.
func TestDetachQuiescesTraining(t *testing.T) {
	srvA, _, _ := newTestServer(t, func(o *Options) { o.TrainWorkers = 2 })
	srvB, _, _ := newTestServer(t, nil)
	defer srvA.Close()

	for i := 0; i < 10; i++ {
		created, err := srvA.CreateSession(CreateRequest{Policy: PolicyOnlineIL})
		if err != nil {
			t.Fatal(err)
		}
		// Enough steps that a retrain is in flight with high probability the
		// moment detach runs.
		stepClosedLoop(t, srvA, created.ID, created.Start, 0, 10)
		data, err := srvA.DetachSession(created.ID)
		if err != nil {
			t.Fatalf("detach: %v", err)
		}
		if _, err := srvB.ImportSession(data); err != nil {
			t.Fatalf("import of freshly trained session: %v", err)
		}
		if _, err := srvB.CloseSession(created.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCreateWithExplicitID covers the router-assigned-id path: the id is
// honored, duplicates conflict, and oversized ids are refused.
func TestCreateWithExplicitID(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	created, err := srv.CreateSession(CreateRequest{Policy: "ondemand", ID: "r-42"})
	if err != nil {
		t.Fatal(err)
	}
	if created.ID != "r-42" {
		t.Fatalf("ID = %q, want r-42", created.ID)
	}
	_, err = srv.CreateSession(CreateRequest{Policy: "ondemand", ID: "r-42"})
	if err == nil || statusOf(err) != http.StatusConflict {
		t.Fatalf("duplicate id: err = %v, want 409", err)
	}
	_, err = srv.CreateSession(CreateRequest{Policy: "ondemand", ID: strings.Repeat("x", 200)})
	if err == nil || statusOf(err) != http.StatusBadRequest {
		t.Fatalf("oversized id: err = %v, want 400", err)
	}
	if _, err := srv.CreateSession(CreateRequest{Policy: "ondemand"}); err != nil {
		t.Fatalf("server-assigned id after explicit ids: %v", err)
	}
}

// fuzzTreeStore is a policy store holding a tree policy, so offline-tree
// envelopes import too; every other decider carries its own state.
func fuzzTreeStore(t testing.TB) *PolicyStore {
	p := soc.NewXU3()
	apps := workload.MiBench(1)[:2]
	for i := range apps {
		apps[i].Snippets = apps[i].Snippets[:8]
	}
	pol, err := il.TrainTreePolicy(p, il.BuildDataset(p, oracle.New(p, oracle.Energy), apps), regtree.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := il.SaveTreePolicy(&buf, pol); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tree.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	store := NewPolicyStore(path, p)
	if err := store.Load(); err != nil {
		t.Fatal(err)
	}
	return store
}

// FuzzImportSession: no envelope panics import or the first step after
// it; SnapshotMeta accepts every envelope import accepts and reads the same
// header; and an accepted envelope re-exports byte for byte, but for the
// epoch, which the import advanced by one.
func FuzzImportSession(f *testing.F) {
	p := soc.NewXU3()
	store := fuzzTreeStore(f)
	cfg := p.Clamp(soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 4, NBig: 2})
	sn := workload.MiBench(8)[0].Snippets[0]
	res := p.Execute(sn, cfg)
	tel := StepTelemetry{Counters: res.Counters, Config: cfg, Threads: sn.Threads, TimeS: res.Time, EnergyJ: res.Energy}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh server per input: fences left by an earlier import would
		// turn every later mutation of the same envelope into a 409.
		srv := New(Options{Platform: p, Store: store})
		defer srv.Close()
		id, epoch, steps, metaErr := SnapshotMeta(data)
		created, err := srv.ImportSession(data)
		if err != nil {
			return
		}
		if metaErr != nil || id != created.ID {
			t.Fatalf("import accepted session %q; SnapshotMeta read %q, %v", created.ID, id, metaErr)
		}
		out, err := srv.ExportSession(id)
		if err != nil {
			t.Fatal(err)
		}
		_, outEpoch, outSteps, err := SnapshotMeta(out)
		if err != nil || outEpoch != epoch+1 || outSteps != steps {
			t.Fatalf("re-export header: epoch %d steps %d (%v), want %d and %d", outEpoch, outSteps, err, epoch+1, steps)
		}
		if !bytes.Equal(withEpoch(t, out, epoch), data) {
			t.Fatalf("re-export differs beyond the epoch: %d bytes from %d", len(out), len(data))
		}
		_, _, _ = srv.Step(id, &tel)
	})
}
