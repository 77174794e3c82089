package monitor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cloudmon/internal/ocl"
)

// counterProvider snapshots a monotonically increasing counter — a stand-in
// for cloud state that concurrent writes keep advancing.
type counterProvider struct {
	n atomic.Int64
}

func (p *counterProvider) Snapshot(_ *RequestContext, paths []string) (ocl.MapEnv, error) {
	v := ocl.IntVal(int(p.n.Load()))
	out := make(ocl.MapEnv, len(paths))
	for _, path := range paths {
		out[path] = v
	}
	return out, nil
}

// TestCacheGenerationRace races the pre-state cache's generation
// invalidation against concurrent forwarded writes. Writers advance the
// cloud counter and then bump the project generation (exactly what a
// forwarded write does); readers record the writers' published progress
// before each pre-state read (the cache, else a coalesced provider read)
// and demand the value served is at least that fresh — a stale value surviving a generation bump is the bug the
// per-entry generation stamp exists to prevent. Run with -race.
func TestCacheGenerationRace(t *testing.T) {
	p := &counterProvider{}
	m := newPolicyMonitor(t, Config{
		Provider:         p,
		Forward:          &fakeForwarder{status: 200},
		PreStateCacheTTL: time.Hour, // entries never expire; only generations invalidate
	})
	const path = "quota_sets.volume"
	params := map[string]string{"project_id": "p1"}
	comp := m.routes[0].plan.Compiled

	// progress publishes the counter value whose invalidation has
	// completed: any snapshot starting after must serve >= progress.
	var progress atomic.Int64
	const (
		writers    = 4
		readers    = 4
		iterations = 2000
	)
	var wg sync.WaitGroup
	errs := make(chan string, readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				v := p.n.Add(1)
				m.cache.invalidateProject("p1")
				// Publish monotonically: a racing slower writer must not
				// roll the floor back.
				for {
					cur := progress.Load()
					if v <= cur || progress.CompareAndSwap(cur, v) {
						break
					}
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				floor := progress.Load()
				f := &fetcher{m: m, project: "p1", pk: paramsCacheKey(params), fr: comp.NewFrame(),
					reqCtx: &RequestContext{Params: params, Token: "tok", Phase: PhasePre}}
				err := f.fetchPre(path)
				v, present, _ := f.fr.Cur(path)
				comp.Release(f.fr)
				if err != nil {
					errs <- "snapshot error: " + err.Error()
					return
				}
				if !present {
					errs <- "snapshot missing path"
					return
				}
				if int64(v.Int) < floor {
					errs <- "stale pre-state served across a generation bump"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
