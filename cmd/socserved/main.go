// Command socserved runs the governor as a long-lived service: it loads a
// persisted IL policy, manages concurrent governor sessions over an
// HTTP/JSON API, and reports operational metrics.
//
// Usage:
//
//	socserved -addr :8090 -policy-file policy.bin
//	socserved -policy-file policy.bin -bootstrap        # train it if missing
//
// The policy file is binary (il.SaveMLPPolicy/SaveTreePolicy); a JSON
// policy file from an older build is refused at load. Delete it and run
// with -bootstrap to write a fresh one.
//
// Endpoints:
//
//	POST   /v1/sessions           {"policy":"online-il"}    -> {"id","start"}
//	POST   /v1/sessions/{id}/step {"counters":{...},"config":{...},"threads":1}
//	GET    /v1/sessions/{id}      session info
//	DELETE /v1/sessions/{id}      close session
//	POST   /admin/reload          hot-reload the policy file (also SIGHUP)
//	GET    /metrics               Prometheus text metrics
//	GET    /healthz               liveness probe
//	GET    /readyz                readiness: not draining or recovering, and the policy is loaded
//
// perfbench (a separate module in this repo) is the load generator that
// drives the daemon through this API.
//
// -mode selects the process role in a cluster:
//
//	standalone  (default) one self-contained daemon
//	backend     a daemon that can drain its sessions to -peers
//	            (POST /admin/drain, or SIGTERM)
//	router      a stateless front tier consistent-hash-routing sessions
//	            across the -peers backends and migrating them on
//	            membership change
//
// Crash durability: -ckpt-dir streams session checkpoints to an
// append-compact log replayed on restart (/readyz stays 503 until the
// replay finishes); in backend mode the same stream is replicated to each
// session's ring-successor standby, which promotes the replica on the
// first step after a failover. The -chaos-* flags inject deterministic
// faults (latency, 500s, connection resets, torn checkpoint writes) for
// soak tests — never production.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"socrm/internal/chaos"
	"socrm/internal/ckpt"
	"socrm/internal/cluster"
	"socrm/internal/serve"
	"socrm/internal/soc"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	mode := flag.String("mode", "standalone", "process role: standalone | backend | router")
	peers := flag.String("peers", "", "comma-separated peer base URLs (router: the backends; backend: drain targets)")
	selfURL := flag.String("self", "", "this backend's advertised base URL, excluded from its own drain targets")
	probeEvery := flag.Duration("probe-interval", 500*time.Millisecond, "router: backend readiness probe interval")
	callTimeout := flag.Duration("call-timeout", 0, "deadline for one proxied/drain/replica HTTP call (0 = 5s)")
	probeTimeout := flag.Duration("probe-timeout", 0, "deadline for one readiness probe (0 = 2s)")
	retries := flag.Int("retries", 0, "router: retry budget per proxied call after the first attempt (0 = 2, negative = no retries)")
	retryBackoff := flag.Duration("retry-backoff", 0, "router: base of the jittered exponential retry backoff (0 = 25ms)")
	failAfter := flag.Int("fail-after", 0, "router: consecutive silent probe failures before a backend leaves the ring (0 = 3)")
	ckptDir := flag.String("ckpt-dir", "", "durable checkpoint directory; empty = no crash durability")
	ckptInterval := flag.Duration("ckpt-interval", time.Second, "checkpoint flush cadence; a crash loses at most this much progress per session")
	ckptDirty := flag.Int("ckpt-dirty", 0, "flush early once this many sessions have uncheckpointed steps (0 = interval-only)")
	ckptSync := flag.String("ckpt-sync", "always", "checkpoint fsync policy: always | none")
	replicate := flag.Bool("replicate", true, "backend mode: push checkpoint records to each session's ring-successor standbys")
	replicaQueue := flag.Int("replica-queue", 0, "per-peer replica queue in records; a full queue drops oldest (0 = 256)")
	replicaK := flag.Int("replica-k", 0, "backend: ring-successor standbys per session; survives K-1 standby failures (0 = 2)")
	routerInstance := flag.String("router-instance", "", "router: instance tag baked into assigned session ids; must differ across an active-active router tier")
	maxInflight := flag.Int("max-inflight", 0, "admission bound on concurrent step/batch requests; beyond it -max-queue more wait briefly, the rest shed with 429 (0 = unlimited)")
	maxQueue := flag.Int("max-queue", 0, "requests allowed to wait for an admission slot once -max-inflight is saturated (0 = immediate shed)")
	queueWait := flag.Duration("queue-wait", 0, "how long a queued request waits for an admission slot before shedding (0 = 100ms)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injection schedule seed (deterministic per seed)")
	chaosLatency := flag.Duration("chaos-latency", 0, "chaos: extra latency injected when -chaos-latency-p fires")
	chaosLatencyP := flag.Float64("chaos-latency-p", 0, "chaos: probability of injecting -chaos-latency per request")
	chaosErrorP := flag.Float64("chaos-error-p", 0, "chaos: probability of answering 500 instead of serving")
	chaosResetP := flag.Float64("chaos-reset-p", 0, "chaos: probability of dropping the connection mid-request")
	chaosTornP := flag.Float64("chaos-torn-p", 0, "chaos: probability of tearing a checkpoint record mid-write")
	chaosPartition := flag.String("chaos-partition", "", "chaos: comma-separated destinations (URLs or host:port) this process cannot reach — one side of an asymmetric partition")
	policyFile := flag.String("policy-file", "", "persisted binary policy file (mlp or tree); empty = governor policies only")
	bootstrap := flag.Bool("bootstrap", false, "train and write a quick policy to -policy-file if it does not exist")
	seed := flag.Int64("seed", 42, "seed for bootstrap training, model warm-start and session decorrelation")
	maxSessions := flag.Int("max-sessions", 1024, "maximum concurrent sessions")
	shards := flag.Int("shards", 0, "session-registry shard count, rounded up to a power of two (0 = sized from GOMAXPROCS)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6060); empty = disabled")
	online := flag.Bool("online", true, "warm-start online models at boot so sessions may use policy online-il")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "socserved: "+format+"\n", args...)
		os.Exit(2)
	}
	for _, p := range []struct {
		name  string
		value float64
	}{
		{"-chaos-latency-p", *chaosLatencyP},
		{"-chaos-error-p", *chaosErrorP},
		{"-chaos-reset-p", *chaosResetP},
		{"-chaos-torn-p", *chaosTornP},
	} {
		if p.value < 0 || p.value > 1 {
			fail("%s must be in [0,1], got %g", p.name, p.value)
		}
	}
	var inj *chaos.Injector
	if *chaosLatencyP > 0 || *chaosErrorP > 0 || *chaosResetP > 0 || *chaosTornP > 0 || *chaosPartition != "" {
		inj = chaos.New(chaos.Options{
			Seed:     *chaosSeed,
			Latency:  *chaosLatency,
			LatencyP: *chaosLatencyP,
			ErrorP:   *chaosErrorP,
			ResetP:   *chaosResetP,
			TornP:    *chaosTornP,
		})
		log.Printf("CHAOS ACTIVE (seed %d): latency %v@%g error %g reset %g torn %g — never run in production",
			*chaosSeed, *chaosLatency, *chaosLatencyP, *chaosErrorP, *chaosResetP, *chaosTornP)
		if hosts := splitHosts(*chaosPartition); len(hosts) > 0 {
			inj.SetPartition(hosts...)
			log.Printf("CHAOS PARTITION: this process cannot reach %v", hosts)
		}
	}
	// outbound is the one client this process dials peers with: router
	// calls, drain handoffs, replica pushes and recovery's peer checks. Its
	// transport is chaos-wrapped, so -chaos-partition blackholes the real
	// traffic, not just inbound requests.
	outbound := &http.Client{Timeout: 10 * time.Second}
	if inj != nil {
		outbound.Transport = inj.Transport(nil)
	}
	peerList := splitURLs(*peers)
	switch *mode {
	case "standalone", "backend":
	case "router":
		if len(peerList) == 0 {
			fail("-mode router needs -peers")
		}
		runRouter(cluster.RouterOptions{
			Backends:      peerList,
			ProbeInterval: *probeEvery,
			CallTimeout:   *callTimeout,
			ProbeTimeout:  *probeTimeout,
			Retries:       *retries,
			RetryBackoff:  *retryBackoff,
			FailAfter:     *failAfter,
			Instance:      *routerInstance,
			MaxInflight:   *maxInflight,
			MaxQueue:      *maxQueue,
			QueueWait:     *queueWait,
			Client:        outbound,
		}, *addr, inj, fail)
		return
	default:
		fail("-mode must be standalone, backend or router, got %q", *mode)
	}
	if *mode == "backend" && len(peerList) == 0 {
		fail("-mode backend needs -peers to drain to")
	}
	if *maxSessions <= 0 {
		fail("-max-sessions must be positive, got %d", *maxSessions)
	}
	if *shards < 0 {
		fail("-shards must be non-negative, got %d", *shards)
	}

	p := soc.NewXU3()
	var store *serve.PolicyStore
	if *policyFile != "" {
		if _, err := os.Stat(*policyFile); errors.Is(err, os.ErrNotExist) && *bootstrap {
			log.Printf("bootstrapping policy into %s", *policyFile)
			// Train fully in memory, then write via rename: an interrupted
			// bootstrap must not leave a partial file that blocks every
			// later -bootstrap run.
			var buf bytes.Buffer
			if err := serve.WriteBootstrapPolicy(&buf, p, *seed, 4, 24); err != nil {
				fail("bootstrap: %v", err)
			}
			tmp := *policyFile + ".tmp"
			if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
				fail("bootstrap: %v", err)
			}
			if err := os.Rename(tmp, *policyFile); err != nil {
				fail("bootstrap: %v", err)
			}
		}
		store = serve.NewPolicyStore(*policyFile, p)
		if err := store.Load(); err != nil {
			fail("%v", err)
		}
		log.Printf("loaded policy from %s", *policyFile)
	}

	opt := serve.Options{
		Platform:      p,
		Store:         store,
		MaxSessions:   *maxSessions,
		Shards:        *shards,
		SeedBase:      *seed,
		StepInflight:  *maxInflight,
		StepQueue:     *maxQueue,
		StepQueueWait: *queueWait,
	}
	if *online && store != nil {
		t0 := time.Now()
		opt.Models = serve.WarmModels(p, *seed, 40)
		log.Printf("warm-started online models in %v", time.Since(t0).Round(time.Millisecond))
	}
	srv := serve.New(opt)

	var handler http.Handler = srv.Handler()
	var drainer *cluster.Drainer
	if *mode == "backend" {
		drainer = &cluster.Drainer{
			Server:      srv,
			Self:        *selfURL,
			Peers:       peerList,
			CallTimeout: *callTimeout,
			Client:      outbound,
		}
		handler = cluster.BackendHandler(drainer)
		log.Printf("backend mode: draining to %d peers", len(peerList))
	}
	if inj != nil {
		handler = inj.Middleware(handler)
	}

	// Durability stack: checkpoint store (crash recovery), replicator (warm
	// standby on the ring successor), checkpointer (drives both).
	var ckStore *ckpt.Store
	if *ckptDir != "" {
		if *ckptInterval <= 0 {
			fail("-ckpt-interval must be positive, got %v", *ckptInterval)
		}
		var sync ckpt.SyncPolicy
		switch *ckptSync {
		case "always":
			sync = ckpt.SyncAlways
		case "none":
			sync = ckpt.SyncNone
		default:
			fail("-ckpt-sync must be always or none, got %q", *ckptSync)
		}
		copt := ckpt.Options{Dir: *ckptDir, Sync: sync}
		if inj != nil && *chaosTornP > 0 {
			copt.MaimWrites = inj.TornWrites()
		}
		var err error
		if ckStore, err = ckpt.Open(copt); err != nil {
			fail("checkpoint store: %v", err)
		}
		log.Printf("checkpointing to %s every %v (sync %s)", *ckptDir, *ckptInterval, *ckptSync)
	}
	var repl *cluster.Replicator
	if *mode == "backend" && *replicate {
		repl = cluster.NewReplicator(cluster.ReplicatorOptions{
			Self:        *selfURL,
			Peers:       peerList,
			Fanout:      *replicaK,
			QueueSize:   *replicaQueue,
			CallTimeout: *callTimeout,
			Registry:    srv.Metrics(),
			Client:      outbound,
			// A standby that 409s a push holds a fresher epoch: fence our
			// stale copy so the next step here redirects instead of forking.
			OnStale: srv.FenceStale,
		})
		// Promotion consults reachable standbys so the freshest replica wins
		// even when the local copy went stale during a partition.
		srv.SetPeerReplicas(repl.PeerReplicas)
		log.Printf("replicating checkpoints to %d ring-successor standbys per session", repl.Fanout())
	}
	var ck *serve.Checkpointer
	if ckStore != nil || repl != nil {
		ckOpt := serve.CheckpointerOptions{
			Store:          ckStore,
			Interval:       *ckptInterval,
			DirtyThreshold: *ckptDirty,
		}
		if repl != nil {
			ckOpt.Sink = repl
		}
		ck = serve.NewCheckpointer(srv, ckOpt)
	}
	if ckStore != nil {
		// Hold /readyz false (and replica promotion paused) until the store
		// replay finishes; recovery runs in the background below so the
		// liveness endpoint comes up immediately.
		srv.SetRecovering(true)
	} else if ck != nil {
		ck.Start()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	log.Printf("serving on %s", ln.Addr())

	// -pprof exposes the profiling endpoints on a side listener so an
	// operator can `go tool pprof http://host:port/debug/pprof/profile`
	// against a live daemon without opening them on the service port.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fail("-pprof %s: %v", *pprofAddr, err)
		}
		log.Printf("pprof on http://%s/debug/pprof/", dialableAddr(pln.Addr()))
		go func() {
			// net/http/pprof registers on DefaultServeMux at import time.
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	// SIGHUP hot-reloads the policy file, the classic daemon contract.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.Reload(); err != nil {
				log.Printf("reload failed: %v", err)
			} else {
				log.Printf("policy reloaded (generation %d)", store.Generation())
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if ckStore != nil {
		// Replay the checkpoint store with the listener already up: /healthz
		// answers, /readyz stays 503 until the last session is re-imported.
		// Sessions a peer promoted while this process was down are skipped
		// (the live copy outranks our checkpoint) and tombstoned.
		go func() {
			t0 := time.Now()
			rep, err := cluster.Recover(srv, ckStore, *selfURL, peerList, outbound, *probeTimeout)
			if err != nil {
				log.Printf("recovery: %v", err)
			}
			for _, d := range rep.Damaged {
				log.Printf("recovery: checkpoint damage: %s", d)
			}
			log.Printf("recovered %d sessions (%d live on peers, skipped) in %v",
				rep.Restored, rep.Skipped, time.Since(t0).Round(time.Millisecond))
			srv.SetRecovering(false)
			if ck != nil {
				ck.Start()
			}
		}()
	}

	select {
	case <-ctx.Done():
		// Graceful exit: flip /readyz first so the load balancer (or the
		// cluster router) stops sending new work, drain sessions to peers in
		// backend mode, then let in-flight requests finish under a deadline.
		// The checkpointer stops AFTER the drain: its final flush sees the
		// drained-away sessions gone and tombstones them, so a restart of
		// this node does not resurrect sessions the peers now own.
		log.Printf("shutting down")
		srv.BeginDrain()
		if drainer != nil {
			if rep, err := drainer.Drain(); err != nil {
				log.Print(err) // Drain's errors already start with "drain: "
			} else {
				log.Printf("drained %d sessions to %d peers (%d failed, %d remaining)",
					rep.Drained, len(rep.Targets), rep.Failed, rep.Remaining)
			}
		}
		if ck != nil {
			ck.Stop()
		}
		if repl != nil {
			repl.Stop()
		}
		if ckStore != nil {
			if err := ckStore.Close(); err != nil {
				log.Printf("checkpoint store close: %v", err)
			}
		}
		shutdown(httpSrv)
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fail("%v", err)
		}
	}
}

// runRouter is the -mode router main loop: a stateless front tier, no
// policy store, no sessions of its own.
func runRouter(opt cluster.RouterOptions, addr string, inj *chaos.Injector, fail func(string, ...any)) {
	rt := cluster.NewRouter(opt)
	rt.Probe()
	rt.Start()
	defer rt.Stop()
	var handler http.Handler = rt.Handler()
	if inj != nil {
		handler = inj.Middleware(handler)
	}
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail("%v", err)
	}
	log.Printf("routing for %d backends on %s (%d ready)", len(opt.Backends), ln.Addr(), rt.Ring().Len())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case <-ctx.Done():
		log.Printf("shutting down")
		shutdown(httpSrv)
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fail("%v", err)
		}
	}
}

// splitURLs parses a comma-separated URL list, dropping empty entries and
// trailing slashes (ring membership is string-identical across processes,
// so normalization here is what keeps router and drainer rings in
// agreement).
func splitURLs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimRight(part, "/")
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// splitHosts parses a comma-separated destination list into the bare
// "host:port" form chaos partitions match against, accepting either full
// URLs or already-bare authorities.
func splitHosts(s string) []string {
	var out []string
	for _, part := range splitURLs(s) {
		if i := strings.Index(part, "://"); i >= 0 {
			part = part[i+3:]
		}
		if i := strings.IndexByte(part, '/'); i >= 0 {
			part = part[:i]
		}
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}

// dialableAddr rewrites a wildcard listen address (":6060" binds the
// unspecified host) into one a local client can dial, so the -pprof log
// line prints a URL that works as given.
func dialableAddr(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String()
	}
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// shutdown drains in-flight requests with a bounded grace period.
func shutdown(s *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}
