package serve

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrm/internal/il"
	"socrm/internal/mlp"
	"socrm/internal/snap"
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

// TestOfflineEnvelopeCarriesNoMomentum: a frozen policy never trains, so
// an offline-il envelope carries its scaler, weights and biases but no SGD
// momentum, and fits in 7 KB. The policy imported from it, and the one
// loaded from a policy file, hold all-zero momentum.
func TestOfflineEnvelopeCarriesNoMomentum(t *testing.T) {
	srvA, _, _ := newTestServer(t, nil)
	created, err := srvA.CreateSession(CreateRequest{Policy: PolicyOfflineIL})
	if err != nil {
		t.Fatal(err)
	}
	data, err := srvA.ExportSession(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 7<<10 {
		t.Fatalf("fresh offline-il envelope is %d bytes, want at most 7 KB", len(data))
	}
	srvB, _, _ := newTestServer(t, nil)
	if _, err := srvB.ImportSession(data); err != nil {
		t.Fatal(err)
	}
	imported := srvB.sessions.get(created.ID).dec.(*il.OfflineDecider).Policy.(*il.MLPPolicy)
	polA, _, _ := fixtures(t)
	loaded, err := il.LoadPolicy(bytes.NewReader(polA), srvA.p)
	if err != nil {
		t.Fatal(err)
	}
	momentum := func(n *mlp.Network) []byte {
		var e snap.Encoder
		n.EncodeMomentumTo(&e)
		return e.Bytes()
	}
	for name, pol := range map[string]*il.MLPPolicy{"imported": imported, "loaded": loaded} {
		// Clone zeroes the momentum and keeps the shape.
		if !bytes.Equal(momentum(pol.Net), momentum(pol.Net.Clone())) {
			t.Fatalf("%s policy holds nonzero momentum", name)
		}
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

// TestImportRejectsForeignUpdateSchedule: a buffer so large the learner
// would never retrain is refused with a 400 instead of importing into a
// learner that would not run it, while a buffer the ablations use imports
// and survives the round trip.
func TestImportRejectsForeignUpdateSchedule(t *testing.T) {
	srvA, _, _ := newTestServer(t, nil)
	created, err := srvA.CreateSession(CreateRequest{Policy: PolicyOnlineIL})
	if err != nil {
		t.Fatal(err)
	}
	data, err := srvA.ExportSession(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the envelope to the learner state: header, energy and last
	// config, then the previous-state flag, clear on a session never
	// stepped. The learner opens with radius, then buffer, 8 bytes each.
	d := snap.NewDecoder(data)
	if _, err := decodeEnvelopeHeader(d); err != nil {
		t.Fatal(err)
	}
	d.F64()
	decodeConfig(d)
	if d.Bool() {
		t.Fatal("a session never stepped exported a previous state")
	}
	buffer := len(data) - d.Remaining() + 8

	srvB, _, _ := newTestServer(t, nil)
	t.Run("buffer", func(t *testing.T) {
		mutated := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(mutated[buffer:], 1<<30)
		_, err := srvB.ImportSession(mutated)
		if err == nil {
			t.Fatal("envelope with a foreign value imported")
		}
		if statusOf(err) != http.StatusBadRequest || !strings.Contains(err.Error(), "hyperparameters") {
			t.Fatalf("err = %v (status %d), want a 400 naming the hyperparameters", err, statusOf(err))
		}
		if srvB.SessionCount() != 0 {
			t.Fatalf("rejected import left %d sessions behind", srvB.SessionCount())
		}
	})
	if _, err := srvB.ImportSession(data); err != nil {
		t.Fatalf("the unmodified envelope: %v", err)
	}
	// A buffer the ablations use imports and survives the round trip.
	binary.LittleEndian.PutUint64(data[buffer:], 64)
	srvC, _, _ := newTestServer(t, nil)
	if _, err := srvC.ImportSession(data); err != nil {
		t.Fatalf("buffer 64: %v", err)
	}
	out, err := srvC.ExportSession(created.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(out[buffer:]); got != 64 {
		t.Fatalf("the imported learner re-exports a buffer of %d, want 64", got)
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
	if !srvB.draining.Load() {
		t.Fatal("draining = false after BeginDrain")
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

// TestSnapshotHTTPRoundTrip exercises the wire surface: POST detach, POST
// import, and the /admin/sessions listing a drainer walks.
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

	resp, err := hc.Post(tsA.URL+"/v1/sessions/"+created.ID+"/detach", "", nil)
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

// TestMigrationSoak bounces online-IL sessions between two servers while
// steppers hammer them and retrain inline — the -race proof that the
// per-session handoff lock (remove → close → encode under the session
// lock) has no torn interleaving with retrains or in-flight steps.
func TestMigrationSoak(t *testing.T) {
	srvA, _, _ := newTestServer(t, nil)
	srvB, _, _ := newTestServer(t, nil)

	const nSessions = 6
	ids := make([]string, nSessions)
	for i := range ids {
		created, err := srvA.CreateSession(CreateRequest{Policy: PolicyOnlineIL})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = created.ID
	}

	// Telemetry over varied snippets and configurations, so that decisions
	// aggregate and the sessions retrain while they move.
	p := soc.NewXU3()
	app := workload.MiBench(3)[0]
	tels := make([]StepTelemetry, 64)
	for i := range tels {
		sn := app.Snippets[i%len(app.Snippets)]
		cfg := p.Clamp(soc.Config{LittleFreqIdx: i % len(p.LittleOPPs), BigFreqIdx: 3 * i % len(p.BigOPPs),
			NLittle: 4, NBig: 1 + i%4})
		res := p.Execute(sn, cfg)
		tels[i] = StepTelemetry{Counters: res.Counters, Config: cfg, Threads: sn.Threads,
			TimeS: res.Time, EnergyJ: res.Energy}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				id := ids[(i+w)%nSessions]
				tl := tels[i%len(tels)]
				// A step may race the session's own handoff window; both
				// servers answering not-found for an instant is expected.
				if _, _, err := srvA.Step(id, &tl); err != nil {
					tl = tels[i%len(tels)]
					_, _, _ = srvB.Step(id, &tl)
				}
			}
		}(w)
	}

	// Bounce in pairs of rounds, so every pair ends with the sessions back
	// on srvA, for at least four rounds and until some session has
	// retrained: a slow (-race) run steps too little in four 5 ms rounds
	// to fill a buffer. The deadline turns a learner that never retrains
	// into a failure rather than a hang.
	deadline := time.Now().Add(time.Minute)
	for round := 0; ; round++ {
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
		if round%2 == 0 || round < 3 {
			continue
		}
		if anyRetrained(t, srvA, ids) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no session retrained in %d rounds", round+1)
		}
	}
	stop.Store(true)
	wg.Wait()

	if n := srvA.SessionCount() + srvB.SessionCount(); n != nSessions {
		t.Fatalf("sessions lost in flight: %d resident, want %d", n, nSessions)
	}
	updates := 0
	for _, id := range ids {
		tl := tels[0]
		if _, _, err := srvA.Step(id, &tl); err != nil {
			t.Fatalf("post-soak step %s: %v", id, err)
		}
		info, err := srvA.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		updates += info.Updates
	}
	if updates == 0 {
		t.Fatal("no session retrained during the soak")
	}
	t.Logf("%d retrains across %d sessions", updates, nSessions)
}

// anyRetrained reports whether any of the sessions, all resident on srv,
// has made an incremental policy update.
func anyRetrained(t *testing.T, srv *Server, ids []string) bool {
	t.Helper()
	for _, id := range ids {
		info, err := srv.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Updates > 0 {
			return true
		}
	}
	return false
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

// FuzzImportSession: no envelope panics import or the first step after
// it; SnapshotMeta accepts every envelope import accepts and reads the same
// header; and an accepted envelope re-exports byte for byte, but for the
// epoch, which the import advanced by one.
func FuzzImportSession(f *testing.F) {
	p := soc.NewXU3()
	cfg := p.Clamp(soc.Config{LittleFreqIdx: 6, BigFreqIdx: 9, NLittle: 4, NBig: 2})
	sn := workload.MiBench(8)[0].Snippets[0]
	res := p.Execute(sn, cfg)
	tel := StepTelemetry{Counters: res.Counters, Config: cfg, Threads: sn.Threads, TimeS: res.Time, EnergyJ: res.Energy}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh server per input: fences left by an earlier import would
		// turn every later mutation of the same envelope into a 409.
		srv := New(Options{Platform: p})
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
