package serve

import (
	"net/http"
	"slices"
	"strconv"

	"socrm/internal/counters"
	"socrm/internal/soc"
)

// The step endpoints' fast body path. Our own clients send StepRequest and
// BatchRequest bodies in one fixed shape: objects with known keys, numbers,
// arrays of records and escape-free session ids. parseStepBody and
// parseBatchBody recognize exactly that subset without reflection or
// allocation:
//
//   - whitespace between tokens, the known keys in any order, exact case;
//   - each key at most once per object;
//   - numbers that match the JSON grammar, parsed with the same strconv
//     calls encoding/json makes (ParseFloat(s, 64), ParseInt(s, 10, 64));
//   - session ids without escapes or control bytes, aliased into the body
//     buffer the way SessionRef.UnmarshalJSON aliases them;
//   - null for an array, which is how json.Marshal writes a nil slice;
//   - nothing but whitespace after the value.
//
// Anything else — case-folded, escaped, unknown or duplicate keys, any other
// null, escaped ids, type mismatches, numbers strconv rejects, trailing bytes —
// makes the parser report false. It never reports an error of its own: the
// caller then decodes the same bytes with encoding/json, which stays the
// reference for every accepted and rejected body. FuzzStepBody and
// FuzzBatchBody pin the two to each other.

// bodyParser is a cursor over one request body.
type bodyParser struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *bodyParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c when it is the next byte.
func (p *bodyParser) next(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes a string that carries no escapes and no control bytes and
// returns its contents, aliasing the body.
func (p *bodyParser) str() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (p *bodyParser) digits() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// number consumes one number matching the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns its text.
func (p *bodyParser) number() ([]byte, bool) {
	p.ws()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	switch {
	case p.i < len(p.b) && p.b[p.i] == '0':
		p.i++
	case !p.digits():
		return nil, false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.digits() {
			return nil, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return nil, false
		}
	}
	return p.b[start:p.i], true
}

// float parses a number into a float64 field.
func (p *bodyParser) float(dst *float64) bool {
	s, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		return false
	}
	*dst = v
	return true
}

// int parses a number into an int field; fractions and exponents fail
// ParseInt here exactly as they fail encoding/json.
func (p *bodyParser) int(dst *int) bool {
	s, ok := p.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(s), 10, 64)
	if err != nil || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

// object consumes one object, handing each member's key to field, which
// must consume the value. seen rejects a key field reports twice; field
// returns the key's bit (0 = unknown key, which fails the parse).
func (p *bodyParser) object(field func(key []byte) uint) bool {
	if !p.next('{') {
		return false
	}
	if p.next('}') {
		return true
	}
	var seen uint
	for {
		key, ok := p.str()
		if !ok || !p.next(':') {
			return false
		}
		bit := field(key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if p.next(',') {
			continue
		}
		return p.next('}')
	}
}

// array consumes one array, calling elem once per element; elem consumes
// the element.
func (p *bodyParser) array(elem func() bool) bool {
	if !p.next('[') {
		return false
	}
	if p.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.next(',') {
			continue
		}
		return p.next(']')
	}
}

// end reports whether only whitespace remains.
func (p *bodyParser) end() bool {
	p.ws()
	return p.i == len(p.b)
}

// counterKeys are counters.Snapshot's JSON keys (its Go field names) in
// field order.
var counterKeys = [...]string{
	"InstructionsRetired", "CPUCycles", "BranchMissPredPC", "L2Misses",
	"DataMemAccess", "NoncacheExtMemReq", "LittleUtil", "BigUtil", "ChipPower",
}

// configKeys are soc.Config's JSON keys in field order.
var configKeys = [...]string{"LittleFreqIdx", "BigFreqIdx", "NLittle", "NBig"}

// keyBit returns 1<<i for the i-th name equal to key, or 0.
func keyBit(key []byte, names []string) (int, uint) {
	for i, n := range names {
		if string(key) == n {
			return i, 1 << i
		}
	}
	return 0, 0
}

// member returns a parsed member's key bit, or 0 when its value failed.
func member(ok bool, bit uint) uint {
	if ok {
		return bit
	}
	return 0
}

func (p *bodyParser) counters(c *counters.Snapshot) bool {
	fields := [...]*float64{
		&c.InstructionsRetired, &c.CPUCycles, &c.BranchMissPredPC, &c.L2Misses,
		&c.DataMemAccess, &c.NoncacheExtMemReq, &c.LittleUtil, &c.BigUtil, &c.ChipPower,
	}
	return p.object(func(key []byte) uint {
		i, bit := keyBit(key, counterKeys[:])
		return member(bit != 0 && p.float(fields[i]), bit)
	})
}

func (p *bodyParser) config(c *soc.Config) bool {
	fields := [...]*int{&c.LittleFreqIdx, &c.BigFreqIdx, &c.NLittle, &c.NBig}
	return p.object(func(key []byte) uint {
		i, bit := keyBit(key, configKeys[:])
		return member(bit != 0 && p.int(fields[i]), bit)
	})
}

func (p *bodyParser) telemetry(t *StepTelemetry) bool {
	return p.object(func(key []byte) uint { return p.telemetryField(key, t) })
}

// telemetryField parses the value of one StepTelemetry key and returns the
// key's bit (0 = unknown key or a bad value).
func (p *bodyParser) telemetryField(key []byte, t *StepTelemetry) uint {
	switch string(key) {
	case "counters":
		return member(p.counters(&t.Counters), 1<<0)
	case "config":
		return member(p.config(&t.Config), 1<<1)
	case "threads":
		return member(p.int(&t.Threads), 1<<2)
	case "time_s":
		return member(p.float(&t.TimeS), 1<<3)
	case "energy_j":
		return member(p.float(&t.EnergyJ), 1<<4)
	}
	return 0
}

// null consumes a null literal. Only array-valued keys take it: json.Marshal
// writes a nil slice as null, and a null array decodes to an empty one.
func (p *bodyParser) null() bool {
	p.ws()
	if len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

// steps parses an array of telemetry records into *dst, reusing its
// capacity; the slots past len must be zero (the scratch resets clear them).
func (p *bodyParser) steps(dst *[]StepTelemetry) bool {
	if p.null() {
		return true
	}
	return p.array(func() bool {
		if len(*dst) == cap(*dst) {
			// A fresh slot grows from 4 records, not 1.
			*dst = slices.Grow(*dst, max(len(*dst), 4))
		}
		*dst = append(*dst, StepTelemetry{})
		return p.telemetry(&(*dst)[len(*dst)-1])
	})
}

// parseStepBody parses b into req, which must be freshly reset. It reports
// false for any body outside the fast-path subset; req is then partly
// written and must be reset before another decode.
func parseStepBody(b []byte, req *StepRequest) bool {
	p := bodyParser{b: b}
	return p.object(func(key []byte) uint {
		if string(key) == "steps" {
			return member(p.steps(&req.Steps), 1<<5)
		}
		return p.telemetryField(key, &req.StepTelemetry)
	}) && p.end()
}

// parseBatchBody is parseStepBody for batch bodies. Entry slots past len
// keep their nested Steps storage, which the parse reuses.
func parseBatchBody(b []byte, req *BatchRequest) bool {
	p := bodyParser{b: b}
	entry := func() bool {
		req.Entries = growEntries(req.Entries)
		e := &req.Entries[len(req.Entries)-1]
		return p.object(func(key []byte) uint {
			switch string(key) {
			case "session":
				id, ok := p.str()
				e.Session = id
				return member(ok, 1<<0)
			case "steps":
				return member(p.steps(&e.Steps), 1<<1)
			}
			return 0
		})
	}
	return p.object(func(key []byte) uint {
		if string(key) != "entries" {
			return 0
		}
		return member(p.null() || p.array(entry), 1)
	}) && p.end()
}

// growEntries extends entries by one slot, reviving a slot (and its nested
// Steps capacity) left by a previous request.
func growEntries(entries []BatchEntry) []BatchEntry {
	if len(entries) < cap(entries) {
		return entries[:len(entries)+1]
	}
	return append(entries, BatchEntry{})
}

// StepDecoder is the request-body decode of POST /v1/sessions/{id}/step —
// the fast path, then encoding/json — for callers outside the handler
// (benchmarks, embedders that parse step bodies themselves). Not safe for
// concurrent use.
type StepDecoder struct{ scr stepScratch }

// Decode decodes r's body. The returned request, and any storage it
// points into, is reused by the next Decode.
func (d *StepDecoder) Decode(r *http.Request) (*StepRequest, error) {
	d.scr.resetStep()
	err := d.scr.decode(r, &d.scr.req)
	return &d.scr.req, err
}
