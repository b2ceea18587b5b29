package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"socrm/internal/ckpt"
	"socrm/internal/cluster"
	"socrm/internal/il"
	"socrm/internal/metrics"
	"socrm/internal/oracle"
	"socrm/internal/serve"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// fleetSpec is one fleet workload: a closed loop from one client
// goroutine driving a fixed fleet of simulated devices through the
// daemon's HTTP API.
type fleetSpec struct {
	name string
	// routed sends one session's step per op through a cluster.Router to
	// two replicating backends; otherwise one op is a batch of every
	// device's records posted straight to one backend.
	routed bool
	policy string
	// devices in the fleet; each runs one application of workload.AllApps.
	devices int
	// records is the telemetry records per session in a batch op. For
	// online-IL it is the learner's buffer (il.OnlineIL.BufferCap, 8), so
	// every batch retrains every session once. With 4, sessions opened
	// together retrained together on every other batch, op latency had
	// two modes 50% apart in equal shares, and the median flipped between
	// them from seed to seed.
	records int
	// sessionSteps closes a session and opens a fresh one for the device
	// after this many steps (0 = sessions live for the whole run).
	sessionSteps uint64
	// flushEvery runs Checkpointer.Flush on every backend after this many
	// ops (0 = no checkpointing): write work per op is then the same at
	// any speed, unlike a wall-clock ticker.
	flushEvery int
	warmOps    int
}

var (
	fleetRouted = fleetSpec{
		name: "fleet-routed", routed: true, policy: serve.PolicyOfflineIL,
		devices: 16, sessionSteps: 64, flushEvery: routedFlushEvery, warmOps: 512,
	}
	fleetLearn = fleetSpec{
		name: "fleet-learn", policy: serve.PolicyOnlineIL,
		devices: 32, records: 8, warmOps: 8,
	}
)

const (
	// routedFlushEvery is the daemon's default checkpoint cadence
	// (socserved -ckpt-interval 1s) in ops: one second at the ~5,500
	// routed ops/s this workload runs at on a two-vCPU host (median
	// whole-phase rate of two sets of ten seeds: 5,662 and 5,467), rounded
	// down. A fixed op count keeps the write work per op independent of
	// the host's speed; flushing at the default cadence keeps its share of
	// the work what a default deployment writes.
	routedFlushEvery = 5000
	// traceSnippets truncates every device's application; the Oracle
	// labels for energy_vs_oracle_x are swept over exactly these.
	traceSnippets = 48
	// setups is how many times a run builds the serving stack; setup_s is
	// the median and the last stack is the one measured.
	setups = 5
	// policySeed trains the daemon's bootstrap policy. It is program
	// configuration, not workload input, so it does not follow --seed.
	policySeed = 1
)

// device is one simulated SoC: its application trace, the Oracle's
// per-snippet optimum for it, and its governor session.
type device struct {
	app    workload.Application
	labels []oracle.Label
	pos    int
	cfg    soc.Config
	id     string
	steps  uint64
	seed   int64
	recs   []serve.StepTelemetry
}

// execute runs the device's next n snippets at its current configuration
// and accounts their energy against the Oracle's.
func (d *device) execute(p *soc.Platform, n int, ph *phase) []serve.StepTelemetry {
	d.recs = d.recs[:0]
	t0 := time.Now()
	for k := 0; k < n; k++ {
		i := d.pos % len(d.app.Snippets)
		sn := d.app.Snippets[i]
		res := p.Execute(sn, d.cfg)
		d.recs = append(d.recs, serve.StepTelemetry{
			Counters: res.Counters, Config: d.cfg, Threads: sn.Threads,
			TimeS: res.Time, EnergyJ: res.Energy,
		})
		ph.govJ += res.Energy
		ph.orcJ += d.labels[i].Res.Energy
		ph.simS += res.Time
		d.pos++
	}
	ph.execNs += time.Since(t0).Nanoseconds()
	ph.execCalls += n
	return d.recs
}

// phase collects one timed phase of a fleet run. Its per-op records are
// fixed-size histograms, so the heap the phase measures holds the
// program's state, not a log of ops that grows with the program's speed.
type phase struct {
	lat, codec           hist // µs per op
	tail                 windowTail
	create, close, flush hist // µs per call
	ops, failed          int
	firstErr             error
	govJ, orcJ, simS     float64
	execNs               int64
	execCalls            int
}

// record adds one op's latency and client JSON time.
func (ph *phase) record(rtt, codec time.Duration) {
	ph.lat.add(us(rtt))
	ph.tail.add(us(rtt))
	ph.codec.add(us(codec))
}

func (ph *phase) fail(err error) {
	ph.failed++
	if ph.firstErr == nil {
		ph.firstErr = err
	}
}

// backend is one in-process serving backend with its durability stack.
type backend struct {
	srv       *serve.Server
	url       string
	store     *ckpt.Store
	repl      *cluster.Replicator
	ck        *serve.Checkpointer
	ckptBytes atomic.Int64
}

// stack is one set-up of a fleet workload: backends, optional router, the
// loopback listeners in front of them, and the device fleet.
type stack struct {
	spec    fleetSpec
	p       *soc.Platform
	rec     *recorder
	dir     string
	tr      *http.Transport
	hc      *http.Client
	base    string
	bes     []*backend
	router  *cluster.Router
	servers []*http.Server
	serving sync.WaitGroup
	devs    []*device
	// creates holds the round trips of the sessions opened during set-up.
	creates hist
	curOp   atomic.Int64
	nextOp  int64
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listening on loopback: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func (st *stack) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{Handler: h}
	st.servers = append(st.servers, hs)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on teardown
	}()
}

// newStack builds the serving stack for spec and opens one session per
// device. tmp is the parent of the stack's scratch directory.
func newStack(spec fleetSpec, apps []workload.Application, labels [][]oracle.Label, seed int64, tmp string, rec *recorder) (*stack, error) {
	st := &stack{spec: spec, p: soc.NewXU3(), rec: rec}
	var err error
	if st.dir, err = os.MkdirTemp(tmp, spec.name+"-"); err != nil {
		return nil, fmt.Errorf("stack dir: %w", err)
	}
	st.tr = &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	st.hc = &http.Client{Transport: st.tr, Timeout: 30 * time.Second}
	if err := st.build(); err != nil {
		st.close()
		return nil, err
	}
	for i := 0; i < spec.devices; i++ {
		st.devs = append(st.devs, &device{
			app: apps[i%len(apps)], labels: labels[i%len(apps)],
			seed: seed*1_000_003 + int64(i)*7919,
		})
	}
	for _, d := range st.devs {
		if err := st.open(d, nil); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

func (st *stack) build() error {
	pol, err := serve.TrainBootstrapPolicy(st.p, policySeed, 4, 24)
	if err != nil {
		return fmt.Errorf("training policy: %w", err)
	}
	var buf bytes.Buffer
	if err := il.SaveMLPPolicy(&buf, pol); err != nil {
		return fmt.Errorf("saving policy: %w", err)
	}
	polPath := filepath.Join(st.dir, "policy.json")
	if err := os.WriteFile(polPath, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing policy: %w", err)
	}
	store := serve.NewPolicyStore(polPath, st.p)
	if err := store.Load(); err != nil {
		return fmt.Errorf("loading policy: %w", err)
	}
	opt := serve.Options{Platform: st.p, Store: store, MaxSessions: 4096}
	if st.spec.policy == serve.PolicyOnlineIL {
		// Training runs inline in the decide path (TrainWorkers 0), the
		// pipeline the paper's experiments use. With the daemon's
		// background trainer the samples each retrain sees depend on when
		// the worker got the CPU, so the policies, the configurations they
		// pick and the decide work per op all vary with thread timing:
		// same-seed runs differed by half in median latency.
		opt.Models = serve.WarmModels(st.p, policySeed, 40)
	}

	nb := 1
	if st.spec.routed {
		nb = 2
	}
	lns := make([]net.Listener, nb)
	urls := make([]string, nb)
	served := 0 // listeners handed to st.serve; the rest are closed on error
	defer func() {
		for _, ln := range lns[served:] {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range lns {
		if lns[i], urls[i], err = listen(); err != nil {
			return err
		}
	}
	for i := range lns {
		b := &backend{srv: serve.New(opt), url: urls[i]}
		st.bes = append(st.bes, b)
		var h http.Handler = b.srv.Handler()
		if st.spec.routed {
			copt := ckpt.Options{Dir: filepath.Join(st.dir, fmt.Sprintf("ckpt-%d", i)), Sync: ckpt.SyncNone}
			// The store's write hook, used as a passthrough byte counter.
			copt.MaimWrites = func(rec []byte) []byte { b.ckptBytes.Add(int64(len(rec))); return rec }
			if b.store, err = ckpt.Open(copt); err != nil {
				return fmt.Errorf("checkpoint store: %w", err)
			}
			b.repl = cluster.NewReplicator(cluster.ReplicatorOptions{
				Self: urls[i], Peers: urls, Registry: b.srv.Metrics(),
				Client: st.hc, OnStale: b.srv.FenceStale,
			})
			b.srv.SetPeerReplicas(b.repl.PeerReplicas)
			b.ck = serve.NewCheckpointer(b.srv, serve.CheckpointerOptions{Store: b.store, Sink: b.repl})
			h = cluster.BackendHandler(&cluster.Drainer{Server: b.srv, Self: urls[i], Peers: urls, Client: st.hc})
		}
		st.serve(lns[i], st.wrapBackend(b, h))
		served++
	}
	st.base = urls[0]
	if st.spec.routed {
		ln, url, err := listen()
		if err != nil {
			return err
		}
		st.router = cluster.NewRouter(cluster.RouterOptions{Backends: urls, Client: st.hc})
		if !st.router.Probe() {
			ln.Close()
			return errors.New("router found no ready backend")
		}
		st.serve(ln, st.wrapRouter(st.router.Handler()))
		st.base = url
	}
	return nil
}

// close tears the stack down and waits for every goroutine it started.
func (st *stack) close() {
	if st.router != nil {
		st.router.Stop()
	}
	for _, b := range st.bes {
		if b.repl != nil {
			b.repl.Stop()
		}
	}
	for _, hs := range st.servers {
		hs.Close()
	}
	st.serving.Wait()
	for _, b := range st.bes {
		b.srv.Close()
		if b.store != nil {
			b.store.Close()
		}
	}
	st.tr.CloseIdleConnections()
	os.RemoveAll(st.dir)
}

// sessionOf extracts the session id from a /v1/sessions/{id}/... or
// /v1/replica/{id} path.
func sessionOf(path string) string {
	for _, pre := range []string{"/v1/sessions/", "/v1/replica/"} {
		if rest, ok := strings.CutPrefix(path, pre); ok {
			id, _, _ := strings.Cut(rest, "/")
			return id
		}
	}
	return ""
}

// wrapBackend records the backend's span for each request and, inside
// it, the decide time the server's own latency histogram accumulated
// while the request ran (one request is in flight per server, apart from
// replica pushes, which decide nothing).
func (st *stack) wrapBackend(b *backend, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !st.rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		name, op := "serve.http", st.curOp.Load()
		if strings.HasPrefix(r.URL.Path, "/v1/replica/") {
			name, op = "cluster.replica_"+strings.ToLower(r.Method), -1
		}
		key := sessionOf(r.URL.Path)
		d0 := b.srv.DecideLatency().Sum()
		t0 := st.rec.now()
		h.ServeHTTP(w, r)
		t1 := st.rec.now()
		st.rec.add(name, key, op, t0, t1)
		if dd := int64((b.srv.DecideLatency().Sum() - d0) * 1e9); op >= 0 && dd > 0 {
			st.rec.add("serve.decide", key, op, max(t0, t1-dd), t1)
		}
	})
}

func (st *stack) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !st.rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		op := st.curOp.Load()
		t0 := st.rec.now()
		h.ServeHTTP(w, r)
		st.rec.add("cluster.router", sessionOf(r.URL.Path), op, t0, st.rec.now())
	})
}

// beginOp gives the next client call a fresh op id for span correlation.
func (st *stack) beginOp() int64 {
	st.nextOp++
	st.curOp.Store(st.nextOp)
	return st.nextOp
}

// call sends one JSON request and decodes the reply into out, returning
// the round-trip time (request write to last response byte) and the
// client's own JSON time. The round trip is recorded as span name.
func (st *stack) call(name, key string, op int64, method, path string, in, out any, want int) (rtt, codec time.Duration, err error) {
	c0 := time.Now()
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, st.base+path, body)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	codec = t0.Sub(c0)
	resp, err := st.hc.Do(req)
	if err != nil {
		return 0, codec, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	rtt = t1.Sub(t0)
	st.rec.add(name, key, op, st.rec.at(t0), st.rec.at(t1))
	if err != nil {
		return rtt, codec, err
	}
	if resp.StatusCode != want {
		return rtt, codec, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return rtt, codec, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return rtt, codec + time.Since(t1), nil
}

// open creates a fresh session for d (closing its previous one first).
func (st *stack) open(d *device, ph *phase) error {
	if d.id != "" {
		rtt, _, err := st.call("client.close", d.id, st.beginOp(), http.MethodDelete, "/v1/sessions/"+d.id, nil, nil, http.StatusOK)
		if err != nil {
			return fmt.Errorf("closing session: %w", err)
		}
		if ph != nil {
			ph.close.add(us(rtt))
		}
	}
	d.seed++
	seed := d.seed
	var created serve.CreateResponse
	rtt, _, err := st.call("client.create", "", st.beginOp(), http.MethodPost, "/v1/sessions", serve.CreateRequest{Policy: st.spec.policy, Seed: &seed}, &created, http.StatusCreated)
	if err != nil {
		return fmt.Errorf("creating session: %w", err)
	}
	if ph != nil {
		ph.create.add(us(rtt))
	} else {
		st.creates.add(us(rtt))
	}
	if err := checkConfig(st.p, created.Start); err != nil {
		return err
	}
	d.id, d.cfg, d.steps = created.ID, created.Start, 0
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// run drives ops until the deadline or maxOps, whichever comes first.
func (st *stack) run(ph *phase, until time.Time, maxOps int) error {
	next := 0
	for ph.ops < maxOps && (until.IsZero() || time.Now().Before(until)) {
		var err error
		if st.spec.routed {
			err = st.routedOp(st.devs[next%len(st.devs)], ph)
			next++
		} else {
			err = st.batchOp(ph)
		}
		ph.ops++
		if err != nil {
			var fatal fatalError
			if errors.As(err, &fatal) {
				return err
			}
			ph.fail(err)
		}
		if st.spec.flushEvery > 0 && ph.ops%st.spec.flushEvery == 0 {
			if err := st.flush(ph); err != nil {
				return err
			}
		}
	}
	return nil
}

// fatalError stops a run: the fleet can no longer be driven.
type fatalError struct{ error }

// flush checkpoints every backend and waits until each replicator has
// settled (pushed, refused or dropped) every record the flush handed it,
// so the next op never races a replication burst: the write stream costs
// the same share of every run whatever the host's speed.
func (st *stack) flush(ph *phase) error {
	want := make([]float64, len(st.bes))
	for i, b := range st.bes {
		t0 := st.rec.now()
		c0 := time.Now()
		want[i] = replSettled(b.srv.Metrics())
		n, err := b.ck.Flush()
		if err != nil {
			return fatalError{fmt.Errorf("checkpoint flush: %w", err)}
		}
		want[i] += float64(n)
		ph.flush.add(us(time.Since(c0)))
		st.rec.add("serve.checkpoint.flush", "", -1, t0, st.rec.now())
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, b := range st.bes {
		for replSettled(b.srv.Metrics()) < want[i] {
			if time.Now().After(deadline) {
				return fatalError{errors.New("replicator did not settle within 10s")}
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	return nil
}

// replSettled counts the replica records a backend's replicator finished
// with, whatever the outcome.
func replSettled(reg *metrics.Registry) float64 {
	return reg.Counter("socserved_replica_pushed_total", "").Value() +
		reg.Counter("socserved_replica_push_errors_total", "").Value() +
		reg.Counter("socserved_replica_push_stale_total", "").Value() +
		reg.Meter("socserved_replica_queue_dropped_total", "").Value()
}

// routedOp is one op of fleet-routed: one telemetry record through the
// router to the session's owner.
func (st *stack) routedOp(d *device, ph *phase) error {
	if st.spec.sessionSteps > 0 && d.steps >= st.spec.sessionSteps {
		if err := st.open(d, ph); err != nil {
			return fatalError{err}
		}
	}
	req := serve.StepRequest{StepTelemetry: d.execute(st.p, 1, ph)[0]}
	var resp serve.StepResponse
	rtt, codec, err := st.call("client.op", d.id, st.beginOp(), http.MethodPost, "/v1/sessions/"+d.id+"/step", req, &resp, http.StatusOK)
	ph.record(rtt, codec)
	if err != nil {
		d.steps = st.spec.sessionSteps // start the device over on a fresh session
		return err
	}
	if err := checkSteps(d.id, d.steps, resp.Step, 1); err != nil {
		d.steps = st.spec.sessionSteps
		return err
	}
	d.steps = resp.Step
	if err := checkConfig(st.p, resp.Config); err != nil {
		return err
	}
	d.cfg = resp.Config
	return nil
}

// batchOp is one op of fleet-learn: every device's next records in one
// POST /v1/step/batch.
func (st *stack) batchOp(ph *phase) error {
	req := serve.BatchRequest{Entries: make([]serve.BatchEntry, 0, len(st.devs))}
	for _, d := range st.devs {
		req.Entries = append(req.Entries, serve.BatchEntry{
			Session: serve.SessionRef(d.id),
			Steps:   d.execute(st.p, st.spec.records, ph),
		})
	}
	var resp serve.BatchResponse
	rtt, codec, err := st.call("client.op", "", st.beginOp(), http.MethodPost, "/v1/step/batch", req, &resp, http.StatusOK)
	ph.record(rtt, codec)
	if err != nil {
		return err
	}
	if len(resp.Results) != len(st.devs) {
		return fmt.Errorf("batch answered %d of %d sessions", len(resp.Results), len(st.devs))
	}
	var firstErr error
	for i, d := range st.devs {
		r := resp.Results[i]
		err := func() error {
			if r.Session != d.id || r.Status != serve.StepOK {
				return fmt.Errorf("batch entry %d: session %q status %d (%s)", i, r.Session, r.Status, r.Error)
			}
			if len(r.Configs) != st.spec.records {
				return fmt.Errorf("session %s: %d configs for %d records", d.id, len(r.Configs), st.spec.records)
			}
			for _, c := range r.Configs {
				if err := checkConfig(st.p, c); err != nil {
					return err
				}
			}
			return checkSteps(d.id, d.steps, r.Step, st.spec.records)
		}()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		d.steps = r.Step
		d.cfg = r.Configs[len(r.Configs)-1]
	}
	return firstErr
}

// stateKB is the mean exported session envelope of the live fleet.
func (st *stack) stateKB() (float64, error) {
	total := 0
	for _, d := range st.devs {
		found := false
		for _, b := range st.bes {
			if data, err := b.srv.ExportSession(d.id); err == nil {
				total += len(data)
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("session %s is live on no backend", d.id)
		}
	}
	return float64(total) / float64(len(st.devs)) / 1024, nil
}

// regReader sums the named counter or meter over every registry of the
// stack.
type regReader struct{ regs []*metrics.Registry }

func (st *stack) registries() regReader {
	var rr regReader
	for _, b := range st.bes {
		rr.regs = append(rr.regs, b.srv.Metrics())
	}
	if st.router != nil {
		rr.regs = append(rr.regs, st.router.Metrics())
	}
	return rr
}

func (rr regReader) counter(name string) float64 {
	v := 0.0
	for _, r := range rr.regs {
		v += r.Counter(name, "").Value()
	}
	return v
}

func (rr regReader) meter(name string) float64 {
	v := 0.0
	for _, r := range rr.regs {
		v += r.Meter(name, "").Value()
	}
	return v
}

// fleetCounters is a reading of the program's own registries.
type fleetCounters struct {
	decisions, stepErrors, retries, proxyErrors  float64
	updates                                      int
	ckptRecords, pushed, replDropped, replErrors float64
	ckptBytes                                    int64
}

func (st *stack) readCounters() fleetCounters {
	rr := st.registries()
	c := fleetCounters{
		decisions:   rr.counter("socserved_steps_total"),
		stepErrors:  rr.counter("socserved_step_errors_total"),
		retries:     rr.counter("socrouted_retries_total"),
		proxyErrors: rr.counter("socrouted_proxy_errors_total"),
		ckptRecords: rr.counter("socserved_ckpt_records_total"),
		pushed:      rr.counter("socserved_replica_pushed_total"),
		replDropped: rr.meter("socserved_replica_queue_dropped_total"),
		replErrors:  rr.counter("socserved_replica_push_errors_total"),
	}
	for _, b := range st.bes {
		c.ckptBytes += b.ckptBytes.Load()
		for _, d := range st.devs {
			if inf, err := b.srv.Info(d.id); err == nil {
				c.updates += inf.Updates
			}
		}
	}
	return c
}

// fleetInputs generates the device traces from the workload seed and the
// Oracle's labels for them. The labelling is reference work for
// energy_vs_oracle_x and is not part of set-up.
func fleetInputs(seed int64) ([]workload.Application, [][]oracle.Label) {
	apps := workload.AllApps(seed)
	labels := make([][]oracle.Label, len(apps))
	orc := oracle.New(soc.NewXU3(), oracle.Energy)
	for i := range apps {
		if len(apps[i].Snippets) > traceSnippets {
			apps[i].Snippets = apps[i].Snippets[:traceSnippets]
		}
		labels[i] = orc.LabelAppWith(apps[i], 0)
	}
	return apps, labels
}

// runFleet runs one fleet workload and returns its report.
func runFleet(spec fleetSpec, cfg runConfig) (*report, error) {
	apps, labels := fleetInputs(cfg.seed)
	rec := newRecorder()
	rep := &report{}

	var st *stack
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s, err := newStack(spec, apps, labels, cfg.seed, cfg.tmp, rec)
		if err != nil {
			return nil, err
		}
		if err := s.run(&phase{}, time.Time{}, spec.warmOps); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			s.close()
		} else {
			st = s
		}
	}
	defer st.close()
	rep.setupS = median(setupS)

	measure := func(d time.Duration) (*phase, window, fleetCounters, fleetCounters, error) {
		ph := &phase{}
		c0 := st.readCounters()
		hp := startHeapPeak()
		a := readProc()
		err := st.run(ph, time.Now().Add(d), 1<<62)
		b := readProc()
		w := measureWindow(a, b, ph.ops, hp.finish())
		return ph, w, c0, st.readCounters(), err
	}

	dur := cfg.seconds
	if cfg.trace {
		dur /= 2
	}
	ph, w, _, _, err := measure(dur)
	if err != nil {
		return nil, err
	}
	rep.fill(ph, w)
	rep.energyX = ph.govJ / ph.orcJ
	if rep.stateKB, err = st.stateKB(); err != nil {
		return nil, err
	}
	overheadPct := 100 * rep.latP50 / (ph.simS / float64(ph.ops) * 1e6)
	rep.checkEnergy(rep.energyX)
	if !cfg.trace {
		return rep, nil
	}

	rec.on.Store(true)
	tph, tw, c0, c1, err := measure(dur)
	rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	// The traced phase's ops are checked like the untraced phase's and
	// count towards the run's result.
	rep.count(tph)
	rep.checkEnergy(tph.govJ / tph.orcJ)
	spans := rec.snapshot()
	rep.spans = spans
	if tph.create.n == 0 {
		tph.create = st.creates // fleet-learn opens its sessions only in set-up
	}
	rep.layers = fleetLayers(spec, spans, tph, tw, c0, c1, rep.latP50)
	rep.layers["serve.overhead_pct"] = overheadPct
	rep.layers["op.lat_tail_us"] = rep.latTail
	rep.layers["snap.envelope_bytes"] = rep.stateKB * 1024
	if spec.policy == serve.PolicyOnlineIL {
		// The learning workload's traced run also times the paper
		// pipeline's stages: the offline counterpart of the online
		// learning it serves, on the same soc model and learners.
		pl, pspans, err := pipelineLayers(cfg.seed)
		if err != nil {
			return nil, err
		}
		for k, v := range pl {
			rep.layers[k] = v
		}
		rep.spans = append(rep.spans, pspans...)
	}
	return rep, nil
}

// fleetLayers derives the per-layer metrics of a traced fleet phase.
func fleetLayers(spec fleetSpec, spans []span, ph *phase, w window, c0, c1 fleetCounters, untracedP50 float64) map[string]float64 {
	self := selfTimes(spans)
	byOp := func(name string, useSelf bool) map[int64]float64 {
		m := map[int64]float64{}
		for i, s := range spans {
			if s.name == name && s.op >= 0 {
				if useSelf {
					m[s.op] += float64(self[i]) / 1e3
				} else {
					m[s.op] += float64(s.dur()) / 1e3
				}
			}
		}
		return m
	}
	clientOp := byOp("client.op", false)
	routerDur, routerSelf := byOp("cluster.router", false), byOp("cluster.router", true)
	httpDur, httpSelf := byOp("serve.http", false), byOp("serve.http", true)
	decide := byOp("serve.decide", false)
	// Average the components over the ops whose latency lies between the
	// 40th and 60th percentile: they then add up to the median op.
	var lats []float64
	for _, lat := range clientOp {
		lats = append(lats, lat)
	}
	sorted := sortedCopy(lats)
	lo, hi := percentile(sorted, 40), percentile(sorted, 60)
	var transport, rSelf, hSelf, dec, n float64
	for op, lat := range clientOp {
		if lat < lo || lat > hi {
			continue
		}
		hop := httpDur[op]
		if spec.routed {
			hop = routerDur[op]
			rSelf += routerSelf[op]
		}
		transport += lat - hop
		hSelf += httpSelf[op]
		dec += decide[op]
		n++
	}
	n = max(n, 1)
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range spans {
			if s.name == name {
				out = append(out, float64(s.dur())/1e3)
			}
		}
		return out
	}
	l := map[string]float64{
		"client.execute_us":           float64(ph.execNs) / 1e3 / float64(max(ph.execCalls, 1)),
		"client.codec_us":             ph.codec.median(),
		"client.transport_us":         transport / n,
		"cluster.router.self_us":      rSelf / n,
		"cluster.router.retries":      c1.retries - c0.retries,
		"cluster.router.proxy_errors": c1.proxyErrors - c0.proxyErrors,
		"serve.http.self_us":          hSelf / n,
		"serve.decide_us":             dec / n,
		"serve.decisions":             c1.decisions - c0.decisions,
		"serve.step_errors":           c1.stepErrors - c0.stepErrors,
		"serve.learner.updates":       float64(c1.updates - c0.updates),
		"serve.checkpoint.flush_us":   ph.flush.median(),
		"serve.checkpoint.records":    c1.ckptRecords - c0.ckptRecords,
		"ckpt.bytes_appended":         float64(c1.ckptBytes - c0.ckptBytes),
		"cluster.replicator.pushed":   c1.pushed - c0.pushed,
		"cluster.replicator.dropped":  c1.replDropped - c0.replDropped,
		"cluster.replicator.errors":   c1.replErrors - c0.replErrors,
		"cluster.replica_put_us":      median(durs("cluster.replica_post")),
		"serve.session.create_us":     ph.create.median(),
		"serve.session.close_us":      ph.close.median(),
	}
	addRuntime(l, w, ph.lat.median(), untracedP50)
	return l
}
