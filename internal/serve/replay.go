package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"socrm/internal/experiments"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// Transport is how a replay client reaches the daemon: over HTTP exactly as
// a real device agent would, or by direct in-process calls so load
// generation is bounded by the serving hot path rather than by JSON and
// HTTP round-trips. Implementations must be safe for concurrent use by
// independent clients.
type Transport interface {
	// Create opens a session.
	Create(req CreateRequest) (CreateResponse, error)
	// Step decides the given telemetry records in order for one session.
	// resp is reused across calls by each client; implementations fill
	// Config (last decision), Configs (all decisions, when len(steps) > 1)
	// and Step.
	Step(id string, steps []StepTelemetry, resp *StepResponse) error
	// Close deletes the session.
	Close(id string) error
}

// HTTPTransport drives a daemon through its public HTTP API.
type HTTPTransport struct {
	BaseURL string
	Client  *http.Client
}

// Create implements Transport.
func (t HTTPTransport) Create(req CreateRequest) (CreateResponse, error) {
	var created CreateResponse
	err := call(t.Client, http.MethodPost, t.BaseURL+"/v1/sessions", req, &created)
	return created, err
}

// Step implements Transport.
func (t HTTPTransport) Step(id string, steps []StepTelemetry, resp *StepResponse) error {
	var req StepRequest
	if len(steps) == 1 {
		req.StepTelemetry = steps[0]
	} else {
		req.Steps = steps
	}
	*resp = StepResponse{}
	return call(t.Client, http.MethodPost,
		fmt.Sprintf("%s/v1/sessions/%s/step", t.BaseURL, id), req, resp)
}

// Close implements Transport.
func (t HTTPTransport) Close(id string) error {
	return call(t.Client, http.MethodDelete, t.BaseURL+"/v1/sessions/"+id, nil, nil)
}

// DirectTransport drives a Server in-process: same decisions, same metrics
// accounting, no serialization. This is the fast path Replay and the
// throughput benchmarks use so the measured ceiling is the serving layer,
// not the load generator.
type DirectTransport struct {
	Server *Server
}

// Create implements Transport.
func (t DirectTransport) Create(req CreateRequest) (CreateResponse, error) {
	return t.Server.CreateSession(req)
}

// Step implements Transport.
func (t DirectTransport) Step(id string, steps []StepTelemetry, resp *StepResponse) error {
	return t.Server.stepSequence(id, steps, resp)
}

// Close implements Transport.
func (t DirectTransport) Close(id string) error {
	_, err := t.Server.CloseSession(id)
	return err
}

// ReplayOptions configure the built-in load generator: N synthetic clients,
// each simulating one device with its own workload trace.
type ReplayOptions struct {
	// Server enables direct in-process replay against this server.
	Server *Server
	// BaseURL enables HTTP replay, e.g. http://127.0.0.1:8090.
	BaseURL string
	Clients int
	Steps   int // telemetry steps per client
	// Batch > 1 posts that many snippets per step request (open-loop within
	// the batch, as a real batching client would).
	Batch  int
	Policy string // session policy, default offline-il
	Seed   int64  // base workload seed; client i uses Seed+i
	// HTTPClient overrides the HTTP transport (tests inject the httptest
	// client).
	HTTPClient *http.Client
}

// ClientStats is one synthetic client's outcome.
type ClientStats struct {
	Steps   int
	EnergyJ float64
	TimeS   float64
}

// ReplayStats aggregates a replay run.
type ReplayStats struct {
	Clients int
	Steps   int
	EnergyJ float64
	TimeS   float64
}

// transport resolves the configured Transport.
func (opt *ReplayOptions) transport() (Transport, error) {
	if opt.Server != nil {
		return DirectTransport{Server: opt.Server}, nil
	}
	if opt.BaseURL != "" {
		hc := opt.HTTPClient
		if hc == nil {
			hc = http.DefaultClient
		}
		return HTTPTransport{BaseURL: opt.BaseURL, Client: hc}, nil
	}
	return nil, fmt.Errorf("serve: replay needs a Server or BaseURL")
}

// Replay drives the daemon with opt.Clients concurrent sessions, one worker
// each, on the experiment engine's worker pool and returns aggregate
// accounting. Any client error aborts with the lowest-indexed failure,
// deterministically.
// The decisions — and therefore the aggregate stats — are identical for
// the HTTP and direct transports given the same seed.
func Replay(opt ReplayOptions) (ReplayStats, error) {
	if opt.Clients <= 0 || opt.Steps <= 0 {
		return ReplayStats{}, fmt.Errorf("serve: replay needs positive clients and steps, got %d/%d", opt.Clients, opt.Steps)
	}
	if opt.Batch <= 0 {
		opt.Batch = 1
	}
	if opt.Policy == "" {
		opt.Policy = PolicyOfflineIL
	}
	tr, err := opt.transport()
	if err != nil {
		return ReplayStats{}, err
	}
	// One shared read-only platform: Execute never mutates it.
	p := soc.NewXU3()
	idx := make([]int, opt.Clients)
	for i := range idx {
		idx[i] = i
	}
	per, err := experiments.RunJobs(opt.Clients, idx, func(j experiments.Job[int]) (ClientStats, error) {
		return replayClient(tr, p, opt, j.Input)
	})
	if err != nil {
		return ReplayStats{}, err
	}
	agg := ReplayStats{Clients: opt.Clients}
	for _, c := range per {
		agg.Steps += c.Steps
		agg.EnergyJ += c.EnergyJ
		agg.TimeS += c.TimeS
	}
	return agg, nil
}

// replayClient runs one synthetic device: create a session, close the loop
// over its workload trace (execute snippet locally, post counters, adopt
// the returned configuration), then delete the session. The telemetry batch
// and response are reused across iterations, so a direct-transport client
// allocates nothing in steady state.
func replayClient(tr Transport, p *soc.Platform, opt ReplayOptions, client int) (ClientStats, error) {
	seed := opt.Seed + int64(client)
	seq := workload.NewSequence(workload.AllApps(seed)...)

	created, err := tr.Create(CreateRequest{Policy: opt.Policy, Seed: &seed})
	if err != nil {
		return ClientStats{}, fmt.Errorf("client %d: create: %w", client, err)
	}

	stats := ClientStats{}
	cfg := p.Clamp(created.Start)
	batch := make([]StepTelemetry, 0, opt.Batch)
	var resp StepResponse
	for done := 0; done < opt.Steps; {
		n := opt.Batch
		if rest := opt.Steps - done; n > rest {
			n = rest
		}
		batch = batch[:0]
		for k := 0; k < n; k++ {
			sn := seq.Snippets[(done+k)%seq.Len()]
			res := p.Execute(sn, cfg)
			batch = append(batch, StepTelemetry{
				Counters: res.Counters,
				Config:   cfg,
				Threads:  sn.Threads,
				TimeS:    res.Time,
				EnergyJ:  res.Energy,
			})
			stats.EnergyJ += res.Energy
			stats.TimeS += res.Time
		}
		if err := tr.Step(created.ID, batch, &resp); err != nil {
			return ClientStats{}, fmt.Errorf("client %d: step %d: %w", client, done, err)
		}
		cfg = p.Clamp(resp.Config)
		done += n
		stats.Steps += n
	}
	if err := tr.Close(created.ID); err != nil {
		return ClientStats{}, fmt.Errorf("client %d: close: %w", client, err)
	}
	return stats, nil
}

// call performs one JSON request/response round trip, surfacing the
// server's error body on non-2xx statuses.
func call(hc *http.Client, method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
