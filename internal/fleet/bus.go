package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cloudmon/internal/httpkit"
	"cloudmon/internal/obs"
	"cloudmon/internal/osclient"
)

// InvalidatePath is the bus endpoint an instance serves (POST).
const InvalidatePath = "/fleet/invalidate"

// busMessage is the wire shape of a generation bump: {"p":"<project>"} —
// single-letter key so the message stays within the ≤64-byte budget for
// any realistic project id (UUIDs are 32–36 bytes).
type busMessage struct {
	Project string `json:"p"`
}

// maxBusBody bounds what the invalidate handler will read.
const maxBusBody = 64

// maxBusReply bounds the reply to a bump PostInvalidate reads: a 204, or
// a one-line refusal.
const maxBusReply = 4 << 10

// Bus is the cross-instance invalidation fan-out: wired into a monitor's
// OnInvalidate hook, it checks whether the mutated project belongs to
// this instance under the current ring and, when it does not (the window
// a resize-driven remap opens), posts a generation bump to the owner.
// Delivery is fire-and-forget on a goroutine with the existing client
// retry policy — the bump is a freshness hint layered under the front's
// synchronous migration fence, never a correctness dependency.
type Bus struct {
	// Self is this instance's id.
	Self string
	// Ring returns the instance's current view of the routing table.
	Ring func() *Ring
	// Member resolves an instance id to its bus target (nil when
	// unknown — the bump is dropped and counted).
	Member func(id string) *Member
	// Retry paces redelivery attempts (zero value = client defaults).
	Retry osclient.RetryPolicy

	sent    obs.Counter // bumps posted (first attempts)
	dropped obs.Counter // bumps abandoned after retries or without a target
	wg      sync.WaitGroup
}

// OnInvalidate is the monitor hook: it fires on every forwarded write and
// posts a bump when the project's ring owner is another instance.
func (b *Bus) OnInvalidate(project string) {
	ring := b.Ring()
	if ring == nil {
		return
	}
	owner := ring.Owner(project)
	if owner == b.Self {
		return
	}
	m := b.Member(owner)
	if m == nil || m.Invalidate == nil {
		b.dropped.Inc()
		return
	}
	b.sent.Inc()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		policy := b.Retry.WithDefaults()
		for attempt := 1; ; attempt++ {
			if m.Invalidate(project) == nil {
				return
			}
			if attempt >= policy.MaxAttempts {
				b.dropped.Inc()
				return
			}
			time.Sleep(policy.Backoff(attempt, nil))
		}
	}()
}

// Wait blocks until every in-flight bump has been delivered or dropped —
// test and shutdown hygiene.
func (b *Bus) Wait() { b.wg.Wait() }

// Stats reports the bus tallies: bumps posted and bumps abandoned.
func (b *Bus) Stats() (sent, dropped uint64) {
	return b.sent.Value(), b.dropped.Value()
}

// RegisterMetrics exposes the bus counters.
func (b *Bus) RegisterMetrics(reg *obs.Registry) {
	reg.Collect(func(w *obs.MetricsWriter) {
		w.Counter("fleet_bus_sent_total",
			"Cross-instance invalidation bumps posted.", float64(b.sent.Value()))
		w.Counter("fleet_bus_dropped_total",
			"Invalidation bumps abandoned after retries.", float64(b.dropped.Value()))
	})
}

// Invalidator is the instance-side surface the bus bumps — satisfied by
// *monitor.Monitor.
type Invalidator interface {
	InvalidateProject(project string)
}

// InvalidateHandler serves InvalidatePath for one instance: it decodes
// the ≤64-byte bump and forwards it to the monitor's cache generation.
func InvalidateHandler(inv Invalidator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := httpkit.ReadBounded(r.Body, maxBusBody)
		if err != nil {
			http.Error(w, "bump exceeds 64 bytes", http.StatusBadRequest)
			return
		}
		var msg busMessage
		if err := json.Unmarshal(body, &msg); err != nil || msg.Project == "" {
			http.Error(w, "malformed bump", http.StatusBadRequest)
			return
		}
		inv.InvalidateProject(msg.Project)
		w.WriteHeader(http.StatusNoContent)
	})
}

// PostInvalidate delivers one bump to a remote instance's bus endpoint —
// the Member.Invalidate implementation for HTTP-reachable instances.
func PostInvalidate(client *http.Client, baseURL, project string) error {
	body, err := json.Marshal(busMessage{Project: project})
	if err != nil {
		return err
	}
	if len(body) > maxBusBody {
		return fmt.Errorf("fleet: bump for project %q exceeds %d bytes", project, maxBusBody)
	}
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Post(baseURL+InvalidatePath, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := httpkit.ReadBounded(resp.Body, maxBusReply); err != nil {
		return fmt.Errorf("fleet: bump reply: %w", err)
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("fleet: bump rejected: %s", resp.Status)
	}
	return nil
}
