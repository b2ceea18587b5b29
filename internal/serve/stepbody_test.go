package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"socrm/internal/counters"
	"socrm/internal/soc"
)

// The step endpoints decode through a fast path with encoding/json as its
// fallback (stepbody.go, stepScratch.decode). These tests hold the pair to
// encoding/json itself, differential-testing style (McKeeman, "Differential
// testing for software", 1998): for any bytes, the handler's decode and a
// fresh json.Decoder must both accept with equal values or both reject with
// the same error, and the endpoints must answer with the same status as
// when the body streams through the decoder alone.

// handlerDecode runs the step endpoints' decode on b as a body of known
// length, the way handleStep and handleBatch call it, into v (one of the
// scratch's requests).
func handlerDecode(scr *stepScratch, b []byte, v any) error {
	if v == &scr.req {
		scr.resetStep()
	} else {
		scr.resetBatch()
	}
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(b))
	return scr.decode(r, v)
}

// normStep and normBatch map empty slices to nil: the fast path keeps
// pooled empty storage where encoding/json makes a fresh empty slice.
func normStep(r StepRequest) StepRequest {
	if len(r.Steps) == 0 {
		r.Steps = nil
	}
	return r
}

func normBatch(r BatchRequest) BatchRequest {
	if len(r.Entries) == 0 {
		return BatchRequest{}
	}
	out := BatchRequest{Entries: make([]BatchEntry, len(r.Entries))}
	for i, e := range r.Entries {
		if len(e.Session) == 0 {
			e.Session = nil
		}
		if len(e.Steps) == 0 {
			e.Steps = nil
		}
		out.Entries[i] = e
	}
	return out
}

// sameValue compares decoded requests exactly: DeepEqual for structure and
// bytes, the marshalled form for float signs (-0 == 0 under DeepEqual).
func sameValue(a, b any) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}

// agree reports a mismatch between the handler's decode and the reference
// decode of the same body.
func agree(t *testing.T, body []byte, gotErr, wantErr error, got, want any) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("body %q: handler decode err = %v, encoding/json err = %v", body, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("body %q: handler decode err %q, encoding/json err %q", body, gotErr, wantErr)
	case gotErr == nil && !sameValue(got, want):
		t.Fatalf("body %q: handler decoded %+v, encoding/json %+v", body, got, want)
	}
}

// statusOfBody posts body to path on h, once with its length known (fast
// path first) and once streamed (the decoder alone), and returns both
// statuses.
func statusOfBody(h http.Handler, path string, body []byte) (known, streamed int) {
	for i, cl := range []int64{int64(len(body)), -1} {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.ContentLength = cl
		h.ServeHTTP(w, r)
		if i == 0 {
			known = w.Code
		} else {
			streamed = w.Code
		}
	}
	return known, streamed
}

// fuzzServer is a store-free server holding one stateless session, so any
// decodable step body steps successfully.
func fuzzServer(t testing.TB) (http.Handler, string) {
	srv := New(Options{Platform: soc.NewXU3()})
	created, err := srv.CreateSession(CreateRequest{Policy: "performance", ID: "s-1"})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler(), created.ID
}

func FuzzStepBody(f *testing.F) {
	f.Add(mustMarshal(f, randomStepRequest(rand.New(rand.NewSource(1)))))
	h, id := fuzzServer(f)
	path := "/v1/sessions/" + id + "/step"
	f.Fuzz(func(t *testing.T, body []byte) {
		var want StepRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		scr := &stepScratch{}
		// Twice on one scratch: the second decode runs on pooled storage
		// the first one left behind.
		for range 2 {
			err := handlerDecode(scr, body, &scr.req)
			agree(t, body, err, wantErr, normStep(scr.req), normStep(want))
		}
		known, streamed := statusOfBody(h, path, body)
		if known != streamed {
			t.Fatalf("body %q: status %d with known length, %d streamed", body, known, streamed)
		}
		if (wantErr != nil) != (known == http.StatusBadRequest) {
			t.Fatalf("body %q: status %d, encoding/json err %v", body, known, wantErr)
		}
	})
}

func FuzzBatchBody(f *testing.F) {
	f.Add(mustMarshal(f, randomBatchRequest(rand.New(rand.NewSource(1)))))
	h, _ := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var want BatchRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		scr := &stepScratch{}
		for range 2 {
			err := handlerDecode(scr, body, &scr.batch)
			agree(t, body, err, wantErr, normBatch(scr.batch), normBatch(want))
		}
		known, streamed := statusOfBody(h, "/v1/step/batch", body)
		if known != streamed {
			t.Fatalf("body %q: status %d with known length, %d streamed", body, known, streamed)
		}
		if wantErr != nil && known != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, encoding/json err %v", body, known, wantErr)
		}
	})
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randomFloat draws finite values across magnitudes and signs, zeros and
// integral values included.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(2000) - 1000)
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
	default:
		return rng.Float64() * 1e9
	}
}

func randomTelemetry(rng *rand.Rand) StepTelemetry {
	var c counters.Snapshot
	for _, f := range []*float64{&c.InstructionsRetired, &c.CPUCycles, &c.BranchMissPredPC,
		&c.L2Misses, &c.DataMemAccess, &c.NoncacheExtMemReq, &c.LittleUtil, &c.BigUtil, &c.ChipPower} {
		*f = randomFloat(rng)
	}
	randInt := func() int {
		if rng.Intn(8) == 0 {
			return int(rng.Int63()) - math.MaxInt64/2
		}
		return rng.Intn(20) - 2
	}
	t := StepTelemetry{
		Counters: c,
		Config:   soc.Config{LittleFreqIdx: randInt(), BigFreqIdx: randInt(), NLittle: randInt(), NBig: randInt()},
		Threads:  randInt(),
	}
	if rng.Intn(2) == 0 {
		t.TimeS = randomFloat(rng)
	}
	if rng.Intn(2) == 0 {
		t.EnergyJ = randomFloat(rng)
	}
	return t
}

func randomSteps(rng *rand.Rand) []StepTelemetry {
	var steps []StepTelemetry
	for n := rng.Intn(4); n > 0; n-- {
		steps = append(steps, randomTelemetry(rng))
	}
	return steps
}

func randomStepRequest(rng *rand.Rand) StepRequest {
	return StepRequest{StepTelemetry: randomTelemetry(rng), Steps: randomSteps(rng)}
}

func randomBatchRequest(rng *rand.Rand) BatchRequest {
	var req BatchRequest
	for n := rng.Intn(5); n > 0; n-- {
		// Ids from the alphabet our routers and servers issue; json.Marshal
		// escapes nothing in it.
		id := "r" + strconv.Itoa(rng.Intn(3)) + "-" + strconv.Itoa(rng.Intn(1e6))
		if rng.Intn(4) == 0 {
			id = "s-" + strconv.Itoa(rng.Intn(100))
		}
		req.Entries = append(req.Entries, BatchEntry{Session: SessionRef(id), Steps: randomSteps(rng)})
	}
	return req
}

// TestMarshalledBodiesTakeFastPath pins the gain: every body json.Marshal
// makes of a request takes the fast path — and decodes to what
// encoding/json decodes. A fast-path regression that silently routed our
// own clients' bodies to the fallback would still pass every behaviour
// test; this one would fail.
func TestMarshalledBodiesTakeFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		step := randomStepRequest(rng)
		body := mustMarshal(t, step)
		var got StepRequest
		if !parseStepBody(body, &got) {
			t.Fatalf("step body %s fell back to encoding/json", body)
		}
		var want StepRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !sameValue(normStep(got), normStep(want)) {
			t.Fatalf("step body %s: fast path %+v, encoding/json %+v", body, got, want)
		}

		batch := randomBatchRequest(rng)
		body = mustMarshal(t, batch)
		var gotB BatchRequest
		if !parseBatchBody(body, &gotB) {
			t.Fatalf("batch body %s fell back to encoding/json", body)
		}
		var wantB BatchRequest
		if err := json.Unmarshal(body, &wantB); err != nil {
			t.Fatal(err)
		}
		if !sameValue(normBatch(gotB), normBatch(wantB)) {
			t.Fatalf("batch body %s: fast path %+v, encoding/json %+v", body, gotB, wantB)
		}
	}
}

// TestFastPathShapes checks hand-written bodies against both paths: the
// ones our clients plausibly send must take the fast path, the rest must
// fall back, and either way the handler's decode agrees with encoding/json.
func TestFastPathShapes(t *testing.T) {
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"counters":{"CPUCycles":1.5e8},"config":{"NBig":2},"threads":1}`, true},
		{" {\n \"threads\" : 1 , \"config\" : { \"NBig\" : 2 } }\r\n\t", true},
		{`{"threads": 1, "counters": {"ChipPower": 2.1, "LittleUtil": -0}}`, true},
		{`{"steps":[],"time_s":0.5}`, true},
		{`{}`, true},
		{`{"threads":-0}`, true},
		{`{"COUNTERS":{"CPUCycles":1}}`, false},
		{`{"counters":{"cpucycles":1}}`, false},
		{`{"steps":null,"threads":1}`, true},
		{`{"steps":nul}`, false},
		{`{"threads":1,"threads":2}`, false},
		{`{"threads":null}`, false},
		{`{"threads":1.0}`, false},
		{`{"threads":1e2}`, false},
		{`{"time_s":1e400}`, false},
		{`{"time_s":01}`, false},
		{`{"time_s":.5}`, false},
		{`{"time_s":"1"}`, false},
		{`{"extra":{"a":[[[{}]]]},"threads":1}`, false},
		{`{"threads":1} trailing`, false},
		{`{"threads":1}{"threads":2}`, false},
		{`{"threads":1`, false},
		{``, false},
	} {
		var fast StepRequest
		if got := parseStepBody([]byte(tc.body), &fast); got != tc.fast {
			t.Errorf("parseStepBody(%q) = %v, want %v", tc.body, got, tc.fast)
		}
		scr := &stepScratch{}
		var want StepRequest
		wantErr := json.NewDecoder(bytes.NewReader([]byte(tc.body))).Decode(&want)
		err := handlerDecode(scr, []byte(tc.body), &scr.req)
		agree(t, []byte(tc.body), err, wantErr, normStep(scr.req), normStep(want))
	}
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{`{"entries":[{"session":"s-1","steps":[{"threads":1}]},{"steps":[],"session":"r-2"}]}`, true},
		{`{"entries":[]}`, true},
		{`{"entries":[{"session":""}]}`, true},
		{`{"entries":[{"session":"s-1","steps":null}]}`, true},
		{`{"entries":null}`, true},
		{`{"entries":[{"session":null}]}`, false},
		{`{"entries":[{"session":"s-1","session":"s-2"}]}`, false},
		{`{"Entries":[]}`, false},
		{`{"entries":[{"session":"s-\u0031"}]}`, false},
	} {
		var fast BatchRequest
		if got := parseBatchBody([]byte(tc.body), &fast); got != tc.fast {
			t.Errorf("parseBatchBody(%q) = %v, want %v", tc.body, got, tc.fast)
		}
		scr := &stepScratch{}
		var want BatchRequest
		wantErr := json.NewDecoder(bytes.NewReader([]byte(tc.body))).Decode(&want)
		err := handlerDecode(scr, []byte(tc.body), &scr.batch)
		agree(t, []byte(tc.body), err, wantErr, normBatch(scr.batch), normBatch(want))
	}
}
