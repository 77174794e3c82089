package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"cloudmon/internal/monitor"
	"cloudmon/internal/paper"
)

// Client roles. The first three are Table I's roles; anonymous sends no
// token at all.
const (
	roleAdmin     = paper.RoleAdmin
	roleMember    = paper.RoleMember
	roleUser      = paper.RoleUser
	roleAnonymous = "anonymous"
)

// clients is the number of closed-loop clients every workload runs: one
// per core of the two-core reference host, each waiting for its reply
// before sending the next request, as OpenStack SDK callers do.
const clients = 2

// cell is one entry of a workload's request mix: an HTTP method on the
// volume resource issued under a role, drawn with the given weight.
type cell struct {
	method string
	role   string
	weight int
}

// workload is one seeded traffic mix together with the deployment shape
// it runs against.
type workload struct {
	name string
	why  string
	// instances is the number of monitors behind a fleet front; 0 means
	// a single monitor serving the clients directly, with no front.
	instances int
	// rtt is the simulated network round trip added to every
	// monitor-to-cloud request.
	rtt time.Duration
	// post selects synchronous or deferred post-condition checks.
	post monitor.PostMode
	// shared puts both clients on one project; otherwise each client owns
	// projectsPerClient projects no other client touches.
	shared            bool
	projectsPerClient int
	// lo and hi bound the number of volumes each client keeps in each of
	// its projects: creates are redrawn at hi and deletes at lo, so the
	// project listing every contract reads stays the same size however
	// long the run lasts.
	lo, hi int
	mix    []cell
	// strictVerdicts requires every verdict to be OK or the expected
	// block: the workload never lets two in-flight requests share a
	// project, so a correct monitor reports no violation of the correct
	// simulated cloud.
	strictVerdicts bool
	// think bounds a random pause each client takes before a request.
	// Clients on a shared project interfere according to their relative
	// phase; the pause keeps that phase from settling, so how often
	// writes interleave does not depend on where a run happened to start.
	think time.Duration
}

// workloads are the benchmark's traffic mixes, in the order -workload all
// runs them.
var workloads = []workload{
	{
		name:              "mixed-inproc-fleet2",
		why:               "CPU-bound role x op matrix with forbidden cells, through a two-instance fleet front; no RTT, so throughput is the CPU each request costs",
		instances:         2,
		post:              monitor.PostSync,
		projectsPerClient: 4,
		lo:                12,
		hi:                20,
		strictVerdicts:    true,
		mix: []cell{
			{http.MethodGet, roleAdmin, 20},
			{http.MethodGet, roleMember, 20},
			{http.MethodGet, roleUser, 10},
			{http.MethodGet, roleAnonymous, 2},
			{http.MethodPost, roleAdmin, 7},
			{http.MethodPost, roleMember, 7},
			{http.MethodPost, roleUser, 2},
			{http.MethodPut, roleMember, 6},
			{http.MethodPut, roleUser, 2},
			{http.MethodDelete, roleAdmin, 14},
			{http.MethodDelete, roleMember, 2},
			{http.MethodDelete, roleUser, 2},
		},
	},
	{
		name:              "read-rtt1ms",
		why:               "97% GET on a single monitor at 1 ms RTT; latency is set by sequential monitor-to-cloud round trips, not by CPU",
		rtt:               time.Millisecond,
		post:              monitor.PostSync,
		projectsPerClient: 4,
		lo:                12,
		hi:                20,
		strictVerdicts:    true,
		mix: []cell{
			{http.MethodGet, roleAdmin, 64},
			{http.MethodGet, roleMember, 64},
			{http.MethodGet, roleUser, 66},
			{http.MethodPost, roleAdmin, 3},
			{http.MethodDelete, roleAdmin, 3},
		},
	},
	{
		name:              "write-shared-async-rtt1ms",
		why:               "write-heavy mix from both clients on one shared project with async post at 1 ms RTT: post fetch, async queue, write fence, coalescing, audit",
		rtt:               time.Millisecond,
		post:              monitor.PostAsync,
		shared:            true,
		think:             2 * time.Millisecond,
		projectsPerClient: 1,
		lo:                12,
		hi:                20,
		mix: []cell{
			{http.MethodPost, roleAdmin, 15},
			{http.MethodPost, roleMember, 15},
			{http.MethodDelete, roleAdmin, 30},
			{http.MethodPut, roleAdmin, 5},
			{http.MethodPut, roleMember, 5},
			{http.MethodGet, roleAdmin, 5},
			{http.MethodGet, roleMember, 5},
		},
	},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v and all)", name, names)
}

// permitted is the Table I oracle: whether the role may issue the method
// on a volume.
func permitted(role, method string) bool {
	for _, row := range paper.TableI() {
		if string(row.Request) != method {
			continue
		}
		_, ok := row.Roles[role]
		return ok
	}
	return false
}

// blockStatus is the status the monitor answers a request with when the
// contract's pre-condition fails (Enforce mode's "not forwarded").
const blockStatus = http.StatusPreconditionFailed

// expectedStatus is the response the oracle predicts: the cloud's 2xx
// (reported as 200) when Table I permits the request, the monitor's block
// status when it does not. Item requests are only well defined on a
// volume in the client's own pool — the generator never addresses any
// other — so ok is false for a permitted item request outside the pool.
func expectedStatus(role, method string, inPool bool) (status int, ok bool) {
	if !permitted(role, method) {
		return blockStatus, true
	}
	if method != http.MethodPost && !inPool {
		return 0, false
	}
	return http.StatusOK, true
}

// statusMatches compares a response status with the oracle's prediction.
func statusMatches(want, got int) bool {
	if want == http.StatusOK {
		return got >= 200 && got <= 299
	}
	return got == want
}

// request is one generated call.
type request struct {
	cell    cell
	project int    // index into the client's projects
	slot    int    // index into that project's pool (-1 for POST)
	volume  string // addressed volume ("" for POST)
}

// generator draws one client's request sequence. It depends only on the
// seed and on the pool sizes, which evolve by the oracle's predictions,
// so a seed yields the same sequence on every commit that passes the
// response checks.
type generator struct {
	rng    *rand.Rand
	mix    []cell
	total  int
	lo, hi int
	// pools are the client's own volumes, one pool per project.
	pools [][]string
	// minSeen and maxSeen record the pool-size band actually visited.
	minSeen, maxSeen int
}

func newGenerator(w workload, seed int64, client int, pools [][]string) *generator {
	g := &generator{
		rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7_919)),
		mix:   w.mix,
		lo:    w.lo,
		hi:    w.hi,
		pools: pools,
	}
	for _, c := range w.mix {
		g.total += c.weight
	}
	g.minSeen, g.maxSeen = w.hi, w.lo
	for _, p := range pools {
		g.minSeen = min(g.minSeen, len(p))
		g.maxSeen = max(g.maxSeen, len(p))
	}
	return g
}

// next draws the next request. A create that would leave the band's top
// or a delete that would leave its bottom is redrawn, which keeps the
// creates and deletes that reach the cloud balanced.
func (g *generator) next() request {
	for {
		n := g.rng.Intn(g.total)
		c := g.mix[len(g.mix)-1]
		for _, m := range g.mix {
			if n < m.weight {
				c = m
				break
			}
			n -= m.weight
		}
		p := g.rng.Intn(len(g.pools))
		pool := g.pools[p]
		ok := permitted(c.role, c.method)
		if c.method == http.MethodPost {
			if ok && len(pool) >= g.hi {
				continue
			}
			return request{cell: c, project: p, slot: -1}
		}
		if ok && c.method == http.MethodDelete && len(pool) <= g.lo {
			continue
		}
		i := g.rng.Intn(len(pool))
		return request{cell: c, project: p, slot: i, volume: pool[i]}
	}
}

// apply updates the pools with a response the oracle accepted.
func (g *generator) apply(req request, status int, createdID string) {
	if status < 200 || status > 299 {
		return
	}
	pool := g.pools[req.project]
	switch req.cell.method {
	case http.MethodPost:
		pool = append(pool, createdID)
	case http.MethodDelete:
		pool[req.slot] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
	default:
		return
	}
	g.pools[req.project] = pool
	g.minSeen = min(g.minSeen, len(pool))
	g.maxSeen = max(g.maxSeen, len(pool))
}
