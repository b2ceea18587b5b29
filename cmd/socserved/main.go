// Command socserved runs the governor as a long-lived service: it loads a
// persisted IL policy, manages concurrent governor sessions over an
// HTTP/JSON API, and reports operational metrics.
//
// Usage:
//
//	socserved -addr :8090 -policy-file policy.bin
//	socserved -policy-file policy.bin -bootstrap        # train it if missing
//
// The policy file is a binary MLP policy (il.SaveMLPPolicy); a JSON
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
// session's -replica-k ring-successor standbys, which promote the replica
// on the first step after a failover. The one fault-injection flag,
// -chaos-partition, blackholes this process's outbound calls to the named
// peers for partition smoke tests — never production; every other fault
// is injected in-process by the tests.
//
// All flags parse into one validated config (parseConfig); a bad or
// inconsistent command line exits 2 before anything is served.
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
	"slices"
	"strings"
	"syscall"
	"time"

	"socrm/internal/chaos"
	"socrm/internal/ckpt"
	"socrm/internal/cluster"
	"socrm/internal/serve"
	"socrm/internal/soc"
)

// config is the daemon's whole command line, parsed and validated.
type config struct {
	addr           string
	mode           string   // standalone | backend | router
	peers          []string // normalized by splitURLs
	self           string   // backend mode: normalized, and one of peers
	probeInterval  time.Duration
	callTimeout    time.Duration
	failAfter      int
	ckptDir        string
	ckptInterval   time.Duration
	ckptSync       ckpt.SyncPolicy
	replicaK       int
	routerInstance string
	maxInflight    int
	maxQueue       int
	queueWait      time.Duration
	partition      []string // bare host:port destinations this process cannot reach
	policyFile     string
	bootstrap      bool
	seed           int64
	maxSessions    int
	pprofAddr      string
}

// parseConfig parses and validates the command line (without the program
// name). Every rule about which flag values and combinations are legal
// lives here.
func parseConfig(args []string) (config, error) {
	var c config
	var peers, self, ckptSync, partition string
	fs := flag.NewFlagSet("socserved", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8090", "listen address")
	fs.StringVar(&c.mode, "mode", "standalone", "process role: standalone | backend | router")
	fs.StringVar(&peers, "peers", "", "comma-separated peer base URLs (router: the backends; backend: every backend, itself included)")
	fs.StringVar(&self, "self", "", "backend: this backend's advertised base URL, one of -peers")
	fs.DurationVar(&c.probeInterval, "probe-interval", 500*time.Millisecond, "router: backend readiness probe interval")
	fs.DurationVar(&c.callTimeout, "call-timeout", 0, "deadline for one proxied/drain/replica HTTP call (0 = 5s)")
	fs.IntVar(&c.failAfter, "fail-after", 0, "router: consecutive silent probe failures before a backend leaves the ring (0 = 3)")
	fs.StringVar(&c.ckptDir, "ckpt-dir", "", "durable checkpoint directory; empty = no crash durability")
	fs.DurationVar(&c.ckptInterval, "ckpt-interval", time.Second, "checkpoint flush cadence; a crash loses at most this much progress per session")
	fs.StringVar(&ckptSync, "ckpt-sync", "always", "checkpoint fsync policy: always | none")
	fs.IntVar(&c.replicaK, "replica-k", 0, "backend: ring-successor standbys per session; survives K-1 standby failures (0 = 2)")
	fs.StringVar(&c.routerInstance, "router-instance", "", "router: instance tag baked into assigned session ids; must differ across an active-active router tier")
	fs.IntVar(&c.maxInflight, "max-inflight", 0, "admission bound on concurrent step/batch requests; beyond it -max-queue more wait briefly, the rest shed with 429 (0 = unlimited)")
	fs.IntVar(&c.maxQueue, "max-queue", 0, "requests allowed to wait for an admission slot once -max-inflight is saturated (0 = immediate shed)")
	fs.DurationVar(&c.queueWait, "queue-wait", 0, "how long a queued request waits for an admission slot before shedding (0 = 100ms)")
	fs.StringVar(&partition, "chaos-partition", "", "chaos: comma-separated destinations (URLs or host:port) this process cannot reach — one side of an asymmetric partition")
	fs.StringVar(&c.policyFile, "policy-file", "", "persisted binary MLP policy file; empty = governor policies only")
	fs.BoolVar(&c.bootstrap, "bootstrap", false, "train and write a quick policy to -policy-file if it does not exist")
	fs.Int64Var(&c.seed, "seed", 42, "seed for bootstrap training, model warm-start and session decorrelation")
	fs.IntVar(&c.maxSessions, "max-sessions", 1024, "maximum concurrent sessions")
	fs.StringVar(&c.pprofAddr, "pprof", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6060); empty = disabled")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	c.peers = splitURLs(peers)
	c.self = normURL(self)
	c.partition = splitHosts(partition)

	switch c.mode {
	case "standalone":
	case "router", "backend":
		if len(c.peers) == 0 {
			return config{}, fmt.Errorf("-mode %s needs -peers", c.mode)
		}
	default:
		return config{}, fmt.Errorf("-mode must be standalone, backend or router, got %q", c.mode)
	}
	if c.mode == "backend" {
		// A backend missing from its own peer list would count itself among
		// its drain targets and replica standbys.
		if c.self == "" {
			return config{}, errors.New("-mode backend needs -self")
		}
		if !slices.Contains(c.peers, c.self) {
			return config{}, fmt.Errorf("-self %s is not one of -peers %v", c.self, c.peers)
		}
	}
	if c.maxSessions <= 0 {
		return config{}, fmt.Errorf("-max-sessions must be positive, got %d", c.maxSessions)
	}
	if c.ckptInterval <= 0 {
		return config{}, fmt.Errorf("-ckpt-interval must be positive, got %v", c.ckptInterval)
	}
	for _, d := range []struct {
		name  string
		value time.Duration
	}{{"-probe-interval", c.probeInterval}, {"-call-timeout", c.callTimeout}, {"-queue-wait", c.queueWait}} {
		if d.value < 0 {
			return config{}, fmt.Errorf("%s must not be negative, got %v", d.name, d.value)
		}
	}
	for _, n := range []struct {
		name  string
		value int
	}{{"-fail-after", c.failAfter}, {"-replica-k", c.replicaK}, {"-max-inflight", c.maxInflight}, {"-max-queue", c.maxQueue}} {
		if n.value < 0 {
			return config{}, fmt.Errorf("%s must not be negative, got %d", n.name, n.value)
		}
	}
	switch ckptSync {
	case "always":
		c.ckptSync = ckpt.SyncAlways
	case "none":
		c.ckptSync = ckpt.SyncNone
	default:
		return config{}, fmt.Errorf("-ckpt-sync must be always or none, got %q", ckptSync)
	}
	return c, nil
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fail("%v", err)
	}
	// outbound is the one client this process dials peers with: router
	// calls, drain handoffs, replica pushes and recovery's peer checks. Its
	// transport carries the partition, so -chaos-partition blackholes the
	// real traffic.
	outbound := &http.Client{Timeout: 10 * time.Second}
	if len(cfg.partition) > 0 {
		inj := chaos.New(chaos.Options{})
		inj.SetPartition(cfg.partition...)
		outbound.Transport = inj.Transport(nil)
		log.Printf("CHAOS PARTITION: this process cannot reach %v — never run in production", cfg.partition)
	}
	if cfg.mode == "router" {
		runRouter(cfg, outbound)
		return
	}
	runServer(cfg, outbound)
}

// fail reports a fatal error and exits 2.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "socserved: "+format+"\n", args...)
	os.Exit(2)
}

// runServer is the standalone and backend main loop: the session server
// with its optional drain, checkpoint and replication stack.
func runServer(cfg config, outbound *http.Client) {
	p := soc.NewXU3()
	var store *serve.PolicyStore
	if cfg.policyFile != "" {
		if _, err := os.Stat(cfg.policyFile); errors.Is(err, os.ErrNotExist) && cfg.bootstrap {
			log.Printf("bootstrapping policy into %s", cfg.policyFile)
			// Train fully in memory, then write via rename: an interrupted
			// bootstrap must not leave a partial file that blocks every
			// later -bootstrap run.
			var buf bytes.Buffer
			if err := serve.WriteBootstrapPolicy(&buf, p, cfg.seed, 4, 24); err != nil {
				fail("bootstrap: %v", err)
			}
			tmp := cfg.policyFile + ".tmp"
			if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
				fail("bootstrap: %v", err)
			}
			if err := os.Rename(tmp, cfg.policyFile); err != nil {
				fail("bootstrap: %v", err)
			}
		}
		store = serve.NewPolicyStore(cfg.policyFile, p)
		if err := store.Load(); err != nil {
			fail("%v", err)
		}
		log.Printf("loaded policy from %s", cfg.policyFile)
	}

	opt := serve.Options{
		Platform:      p,
		Store:         store,
		MaxSessions:   cfg.maxSessions,
		SeedBase:      cfg.seed,
		StepInflight:  cfg.maxInflight,
		StepQueue:     cfg.maxQueue,
		StepQueueWait: cfg.queueWait,
	}
	if store != nil {
		// Warm-start the online models so sessions may use policy online-il.
		t0 := time.Now()
		opt.Models = serve.WarmModels(p, cfg.seed, 40)
		log.Printf("warm-started online models in %v", time.Since(t0).Round(time.Millisecond))
	}
	srv := serve.New(opt)

	var handler http.Handler = srv.Handler()
	var drainer *cluster.Drainer
	if cfg.mode == "backend" {
		drainer = &cluster.Drainer{
			Server:      srv,
			Self:        cfg.self,
			Peers:       cfg.peers,
			CallTimeout: cfg.callTimeout,
			Client:      outbound,
		}
		handler = cluster.BackendHandler(drainer)
		log.Printf("backend mode: draining to %d peers", len(cfg.peers)-1)
	}

	// Durability stack: checkpoint store (crash recovery), replicator (warm
	// standby on the ring successor), checkpointer (drives both).
	var ckStore *ckpt.Store
	if cfg.ckptDir != "" {
		var err error
		if ckStore, err = ckpt.Open(ckpt.Options{Dir: cfg.ckptDir, Sync: cfg.ckptSync}); err != nil {
			fail("checkpoint store: %v", err)
		}
		log.Printf("checkpointing to %s every %v (fsync per append: %t)", cfg.ckptDir, cfg.ckptInterval, cfg.ckptSync == ckpt.SyncAlways)
	}
	var repl *cluster.Replicator
	if cfg.mode == "backend" {
		repl = cluster.NewReplicator(cluster.ReplicatorOptions{
			Self:        cfg.self,
			Peers:       cfg.peers,
			Fanout:      cfg.replicaK,
			CallTimeout: cfg.callTimeout,
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
		ckOpt := serve.CheckpointerOptions{Store: ckStore, Interval: cfg.ckptInterval}
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

	httpSrv := &http.Server{Addr: cfg.addr, Handler: handler}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fail("%v", err)
	}
	log.Printf("serving on %s", ln.Addr())

	// -pprof exposes the profiling endpoints on a side listener so an
	// operator can `go tool pprof http://host:port/debug/pprof/profile`
	// against a live daemon without opening them on the service port.
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			fail("-pprof %s: %v", cfg.pprofAddr, err)
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
			rep, err := cluster.Recover(srv, ckStore, cfg.self, cfg.peers, outbound, 0)
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
func runRouter(cfg config, outbound *http.Client) {
	rt := cluster.NewRouter(cluster.RouterOptions{
		Backends:      cfg.peers,
		ProbeInterval: cfg.probeInterval,
		CallTimeout:   cfg.callTimeout,
		FailAfter:     cfg.failAfter,
		Instance:      cfg.routerInstance,
		MaxInflight:   cfg.maxInflight,
		MaxQueue:      cfg.maxQueue,
		QueueWait:     cfg.queueWait,
		Client:        outbound,
	})
	rt.Probe()
	rt.Start()
	defer rt.Stop()
	httpSrv := &http.Server{Addr: cfg.addr, Handler: rt.Handler()}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fail("%v", err)
	}
	log.Printf("routing for %d backends on %s (%d ready)", len(cfg.peers), ln.Addr(), rt.Ring().Len())
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
		if part = normURL(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// normURL trims spaces and trailing slashes from one base URL.
func normURL(s string) string {
	return strings.TrimRight(strings.TrimSpace(s), "/")
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
