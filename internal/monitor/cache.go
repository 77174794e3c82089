package monitor

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloudmon/internal/obs"
	"cloudmon/internal/ocl"
)

// CacheStats are the pre-state cache's hit/generation counters, exported
// on /metrics.
type CacheStats struct {
	// Hits and Misses count fresh-read lookups (per path).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// StaleHits counts degrade-path lookups served past the TTL.
	StaleHits uint64 `json:"stale_hits"`
	// Invalidations counts project generation bumps from forwarded
	// writes.
	Invalidations uint64 `json:"invalidations"`
}

// snapshotCache is the optional short-TTL pre-state read cache. Entries are
// keyed by (navigation path, requester token, URI params) and carry the
// project's generation counter at fetch time: any forwarded write for the
// project bumps the counter, invalidating every cached value for it in
// O(1). The TTL additionally bounds how long a write that bypassed the
// monitor can stay invisible.
//
// Only the pre-state lookup consults the cache; post-state snapshots always
// read the cloud, because the post-condition verifies the request's own
// effect.
type snapshotCache struct {
	ttl    time.Duration
	now    func() time.Time
	shards [cacheShards]cacheShard
	// gens maps project id -> *atomic.Uint64 generation counter.
	gens sync.Map

	// Lock-free observability counters (see CacheStats).
	hits          obs.Counter
	misses        obs.Counter
	staleHits     obs.Counter
	invalidations obs.Counter
}

// stats snapshots the counters.
func (c *snapshotCache) stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		StaleHits:     c.staleHits.Value(),
		Invalidations: c.invalidations.Value(),
	}
}

// cacheShards is the number of entry-map shards (power of two).
const cacheShards = 16

// cacheShardLimit triggers an expired-entry sweep when a shard grows past
// it, bounding memory on long runs with many distinct tokens.
const cacheShardLimit = 4096

type cacheShard struct {
	mu      sync.RWMutex
	entries map[string]cacheEntry
}

type cacheEntry struct {
	val     ocl.Value
	present bool
	fetched time.Time
	expires time.Time
	gen     uint64
}

func newSnapshotCache(ttl time.Duration) *snapshotCache {
	c := &snapshotCache{ttl: ttl, now: time.Now}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]cacheEntry)
	}
	return c
}

// projectGen returns the project's current invalidation generation.
func (c *snapshotCache) projectGen(project string) uint64 {
	if g, ok := c.gens.Load(project); ok {
		return g.(*atomic.Uint64).Load()
	}
	return 0
}

// invalidateProject bumps the project's generation, making every cached
// entry fetched under an older generation stale.
func (c *snapshotCache) invalidateProject(project string) {
	g, ok := c.gens.Load(project)
	if !ok {
		g, _ = c.gens.LoadOrStore(project, new(atomic.Uint64))
	}
	g.(*atomic.Uint64).Add(1)
	c.invalidations.Inc()
}

// cacheKey builds the entry key. The token partitions requester-dependent
// paths (user.id.groups); the params partition resource-dependent ones.
// Neither a dotted state path nor a header value (net/http rejects control
// characters in them) can contain the \x1f separator, and paramsCacheKey
// is unambiguous on its own, so distinct triples never share a key.
func cacheKey(path, token, paramsKey string) string {
	return path + "\x1f" + token + "\x1f" + paramsKey
}

// paramsCacheKey flattens the URI captures into a stable string that
// tells every capture set apart: names and values are length-prefixed, so
// no value can pose as a separator (a captured "p1;volume_id=v1" must not
// share a key with {p1, v1}).
func paramsCacheKey(params map[string]string) string {
	if len(params) == 0 {
		return ""
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for _, k := range keys {
		for _, s := range [2]string{k, params[k]} {
			b = strconv.AppendInt(b, int64(len(s)), 10)
			b = append(b, ':')
			b = append(b, s...)
		}
	}
	return string(b)
}

func (c *snapshotCache) shardFor(key string) *cacheShard {
	// FNV-1a over the key.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h%cacheShards]
}

// get returns the cached value for (path, token, params) if fresh under
// the project's current generation. The second return distinguishes "path
// was absent from the provider snapshot" (ok, present=false) from a miss.
func (c *snapshotCache) get(path, token, paramsKey, project string) (ocl.Value, bool, bool) {
	key := cacheKey(path, token, paramsKey)
	sh := c.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.entries[key]
	sh.mu.RUnlock()
	if !ok || c.now().After(e.expires) || e.gen != c.projectGen(project) {
		c.misses.Inc()
		return ocl.Value{}, false, false
	}
	c.hits.Inc()
	return e.val, e.present, true
}

// put stores a fetched value under the generation captured before the
// fetch started, so a write that lands mid-fetch invalidates it.
func (c *snapshotCache) put(path, token, paramsKey, project string, val ocl.Value, present bool, gen uint64) {
	key := cacheKey(path, token, paramsKey)
	sh := c.shardFor(key)
	now := c.now()
	sh.mu.Lock()
	if len(sh.entries) >= cacheShardLimit {
		for k, e := range sh.entries {
			if now.After(e.expires) {
				delete(sh.entries, k)
			}
		}
	}
	sh.entries[key] = cacheEntry{val: val, present: present, fetched: now, expires: now.Add(c.ttl), gen: gen}
	sh.mu.Unlock()
}

// getStale is the degrade-path lookup: it accepts entries past the normal
// TTL as long as they were fetched within maxAge and belong to the
// project's current generation. Normal (non-degraded) reads must use get.
func (c *snapshotCache) getStale(path, token, paramsKey, project string, maxAge time.Duration) (ocl.Value, bool, bool) {
	key := cacheKey(path, token, paramsKey)
	sh := c.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.entries[key]
	sh.mu.RUnlock()
	if !ok || c.now().Sub(e.fetched) > maxAge || e.gen != c.projectGen(project) {
		return ocl.Value{}, false, false
	}
	c.staleHits.Inc()
	return e.val, e.present, true
}
