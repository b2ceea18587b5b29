package memo

import (
	"fmt"
	"sync"

	"socrm/internal/metrics"
	"socrm/internal/snap"
)

// Codec serializes cached values through the snap binary codec. Encode and
// Decode must round-trip bit-exactly: cached results are required to be
// byte-identical to freshly computed ones (the golden-digest tests enforce
// this), so a codec must capture every field the computation's consumers
// can observe — including optimizer state like SGD momentum for policies
// that are trained further downstream.
type Codec interface {
	Encode(e *snap.Encoder, v any)
	// Decode rebuilds the value. Returning an error (or leaving decoder
	// bytes unconsumed) marks the stored entry corrupt: the cache treats
	// it as a miss and recomputes — corruption is never surfaced to
	// callers as a failure or, worse, a wrong result.
	Decode(d *snap.Decoder) (any, error)
}

// Options configures a Cache.
type Options struct {
	// Dir enables the on-disk tier when non-empty. Entries are
	// content-named files; multiple processes may share one Dir.
	Dir string
	// MaxBytes bounds the in-memory tier (encoded-size accounting);
	// least-recently-used entries are evicted past it. <=0 means 256 MiB.
	MaxBytes int64
	// Version is folded into every key. Bump it (or pass a different tag)
	// whenever the semantics of cached computations change: stale entries
	// from older versions simply stop matching.
	Version string
	// Registry receives hit/miss/eviction/bytes counters when non-nil.
	Registry *metrics.Registry
}

const (
	numShards       = 16
	defaultMaxBytes = 256 << 20
)

type entry struct {
	key        Key
	val        any
	size       int64
	prev, next *entry // intrusive LRU list, head = most recent
}

type call struct {
	wg  sync.WaitGroup
	val any
	err error
}

type shard struct {
	mu       sync.Mutex
	entries  map[Key]*entry
	inflight map[Key]*call
	head     *entry
	tail     *entry
	bytes    int64
}

// Cache is the two-tier content-addressed cache. All methods are safe for
// concurrent use. Values returned from the cache are shared: callers must
// treat them as immutable (clone anything that will be mutated).
type Cache struct {
	salt   Key
	disk   *diskTier
	budget int64 // per-shard byte budget
	shards [numShards]shard

	hits       *metrics.Counter
	misses     *metrics.Counter
	evictions  *metrics.Counter
	diskHits   *metrics.Counter
	diskWrites *metrics.Counter
	diskErrors *metrics.Counter
	bytesG     *metrics.Gauge
	entriesG   *metrics.Gauge
}

// New builds a cache. The only error source is creating Dir.
func New(opt Options) (*Cache, error) {
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = defaultMaxBytes
	}
	reg := opt.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	h := NewHasher()
	h.String("socmemo-version-salt")
	h.String(opt.Version)
	c := &Cache{
		salt:       h.Sum(),
		budget:     opt.MaxBytes / numShards,
		hits:       reg.Counter("socmemo_hits_total", "Memoization cache hits (memory tier, incl. singleflight shares)."),
		misses:     reg.Counter("socmemo_misses_total", "Memoization cache misses (led to disk lookup or recompute)."),
		evictions:  reg.Counter("socmemo_evictions_total", "Entries evicted from the in-memory tier by the byte budget."),
		diskHits:   reg.Counter("socmemo_disk_hits_total", "Misses satisfied by a valid on-disk entry."),
		diskWrites: reg.Counter("socmemo_disk_writes_total", "Computed results persisted to the on-disk tier."),
		diskErrors: reg.Counter("socmemo_disk_errors_total", "Corrupt/undecodable disk entries and failed writes (all non-fatal)."),
		bytesG:     reg.Gauge("socmemo_bytes", "Encoded bytes resident in the in-memory tier."),
		entriesG:   reg.Gauge("socmemo_entries", "Entries resident in the in-memory tier."),
	}
	for i := range c.shards {
		c.shards[i].entries = map[Key]*entry{}
		c.shards[i].inflight = map[Key]*call{}
	}
	if opt.Dir != "" {
		t, err := newDiskTier(opt.Dir)
		if err != nil {
			return nil, fmt.Errorf("memo: open disk tier: %w", err)
		}
		c.disk = t
	}
	return c, nil
}

func (c *Cache) salted(key Key) Key {
	// One extra mix round so version-salted keys of related inputs don't
	// stay a constant XOR apart.
	return Key{
		Hi: fmix64(key.Hi ^ c.salt.Hi),
		Lo: fmix64(key.Lo ^ c.salt.Lo + key.Hi),
	}
}

// Lookup checks the in-memory tier only. It is the allocation-free warm
// path: a hit bumps LRU recency and returns the shared value. Callers on a
// hot loop use Lookup first and fall back to Do, whose closure argument
// would otherwise cost an allocation per call even on hits.
func (c *Cache) Lookup(key Key) (any, bool) {
	k := c.salted(key)
	sh := &c.shards[k.Lo%numShards]
	sh.mu.Lock()
	e := sh.entries[k]
	if e == nil {
		sh.mu.Unlock()
		return nil, false
	}
	sh.bump(e)
	v := e.val
	sh.mu.Unlock()
	c.hits.Inc()
	return v, true
}

// Do returns the cached value for key, computing (and caching) it on a
// miss. Concurrent Do calls for the same key share one compute
// (singleflight): waiters block and receive the winner's result. compute
// errors are returned to every waiter and nothing is cached. The returned
// value is shared and must be treated as immutable.
func (c *Cache) Do(key Key, codec Codec, compute func() (any, error)) (any, error) {
	k := c.salted(key)
	sh := &c.shards[k.Lo%numShards]
	sh.mu.Lock()
	if e := sh.entries[k]; e != nil {
		sh.bump(e)
		v := e.val
		sh.mu.Unlock()
		c.hits.Inc()
		return v, nil
	}
	if cl := sh.inflight[k]; cl != nil {
		sh.mu.Unlock()
		cl.wg.Wait()
		if cl.err == nil {
			c.hits.Inc()
		}
		return cl.val, cl.err
	}
	cl := &call{}
	cl.wg.Add(1)
	sh.inflight[k] = cl
	sh.mu.Unlock()

	c.misses.Inc()
	val, size, err := c.fill(k, codec, compute)
	cl.val, cl.err = val, err

	sh.mu.Lock()
	delete(sh.inflight, k)
	if err == nil {
		e := &entry{key: k, val: val, size: size}
		sh.insert(e)
		c.entriesG.Add(1)
		c.bytesG.Add(float64(size))
		// Evict past the budget, oldest first, but never the entry just
		// inserted: an oversized single result must not thrash.
		for sh.bytes > c.budget && sh.tail != nil && sh.tail != e {
			ev := sh.tail
			sh.remove(ev)
			c.evictions.Inc()
			c.entriesG.Add(-1)
			c.bytesG.Add(-float64(ev.size))
		}
	}
	sh.mu.Unlock()
	cl.wg.Done()
	return val, err
}

// fill resolves a memory miss: disk tier first, then compute+persist.
func (c *Cache) fill(k Key, codec Codec, compute func() (any, error)) (any, int64, error) {
	if c.disk != nil {
		payload, ok, corrupt := c.disk.read(k)
		if ok {
			d := snap.NewDecoder(payload)
			v, err := codec.Decode(d)
			if err == nil && d.Err() == nil && d.Remaining() == 0 {
				c.diskHits.Inc()
				return v, int64(len(payload)), nil
			}
			// CRC-valid file whose payload doesn't decode (e.g. written
			// by a different codec layout): recompute and rewrite below.
			corrupt = true
		}
		if corrupt {
			c.diskErrors.Inc()
		}
	}
	v, err := compute()
	if err != nil {
		return nil, 0, err
	}
	var e snap.Encoder
	codec.Encode(&e, v)
	payload := e.Bytes()
	if c.disk != nil {
		if c.disk.write(k, payload) {
			c.diskWrites.Inc()
		} else {
			c.diskErrors.Inc()
		}
	}
	return v, int64(len(payload)), nil
}

// Stats is a point-in-time snapshot of the cache counters, independent of
// the Prometheus registry so CLIs can print it without scraping.
type Stats struct {
	Hits, Misses, Evictions          uint64
	DiskHits, DiskWrites, DiskErrors uint64
	Bytes, Entries                   int64
}

// HitRate returns the fraction of requests served from either tier, in
// percent (0 with no traffic). A memory miss satisfied by a valid on-disk
// entry counts as a hit: the caller skipped the compute, which is what the
// rate measures — a fresh process replaying a warm -cache-dir reports
// ~100%, not 0%.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return 100 * float64(s.Hits+s.DiskHits) / float64(total)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       uint64(c.hits.Value()),
		Misses:     uint64(c.misses.Value()),
		Evictions:  uint64(c.evictions.Value()),
		DiskHits:   uint64(c.diskHits.Value()),
		DiskWrites: uint64(c.diskWrites.Value()),
		DiskErrors: uint64(c.diskErrors.Value()),
		Bytes:      int64(c.bytesG.Value()),
		Entries:    int64(c.entriesG.Value()),
	}
}

// String renders the stats line CLIs print to stderr.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d hit_rate=%.1f%% evictions=%d mem_bytes=%d mem_entries=%d disk_hits=%d disk_writes=%d disk_errors=%d",
		s.Hits, s.Misses, s.HitRate(), s.Evictions, s.Bytes, s.Entries, s.DiskHits, s.DiskWrites, s.DiskErrors)
}

// --- intrusive LRU list (shard lock held) ---

func (sh *shard) insert(e *entry) {
	sh.entries[e.key] = e
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
	sh.bytes += e.size
}

func (sh *shard) remove(e *entry) {
	delete(sh.entries, e.key)
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
	sh.bytes -= e.size
}

func (sh *shard) bump(e *entry) {
	if sh.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	// Push front.
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
}
