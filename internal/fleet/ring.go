// Package fleet shards the cloud monitor horizontally: a thin front tier
// routes each request to one of N monitor instances by rendezvous hashing
// on the project key, so every instance owns a disjoint slice of projects
// and its per-project machinery — the async-post queues and the write
// fence — stays shared-nothing. The package also carries the /metrics
// federation the front serves over per-instance scrapes.
package fleet

import (
	"fmt"
	"sort"
)

// Ring is an immutable rendezvous-hash (highest-random-weight) routing
// table over instance ids. Every key hashes against every instance and
// the highest score wins, which gives the two properties the fleet needs
// by construction: keys spread evenly, and adding an instance moves only
// the keys the new instance wins (~1/(N+1) of them) — nothing else
// remaps. Lookups are O(N) with N the instance count, not the key count.
type Ring struct {
	ids []string
}

// NewRing builds a ring over the instance ids (order-insensitive;
// duplicates and empties are errors).
func NewRing(ids []string) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one instance")
	}
	sorted := make([]string, len(ids))
	copy(sorted, ids)
	sort.Strings(sorted)
	for i, id := range sorted {
		if id == "" {
			return nil, fmt.Errorf("fleet: empty instance id")
		}
		if i > 0 && sorted[i-1] == id {
			return nil, fmt.Errorf("fleet: duplicate instance id %q", id)
		}
	}
	return &Ring{ids: sorted}, nil
}

// Owner returns the instance that owns the key.
func (r *Ring) Owner(key string) string {
	best, bestScore := "", uint64(0)
	for _, id := range r.ids {
		if s := score(key, id); best == "" || s > bestScore {
			best, bestScore = id, s
		}
	}
	return best
}

// Instances returns the sorted instance ids.
func (r *Ring) Instances() []string {
	out := make([]string, len(r.ids))
	copy(out, r.ids)
	return out
}

// Size returns the instance count.
func (r *Ring) Size() int { return len(r.ids) }

// score hashes (key, instance) to the instance's weight for the key:
// FNV-1a over key, a separator, and the instance id, finished with a
// 64-bit avalanche mix (splitmix64's finalizer) so short, structured ids
// like "m-01" still spread keys within the balance bound the property
// tests pin (±20% across 1k keys).
func score(key, id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= 0xff // separator: "ab"+"c" must not collide with "a"+"bc"
	h *= prime64
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
