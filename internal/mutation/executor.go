package mutation

import (
	"fmt"
	"net/http"

	"cloudmon/internal/mbt"
	"cloudmon/internal/openstack/cinder"
	"cloudmon/internal/osclient"
	"cloudmon/internal/uml"
)

// ModelExecutor drives mbt-generated suites against the lab deployment:
// triggers on the volume resource map to monitored REST requests, and the
// cloud monitor acts as the test oracle. A fresh deployment is provisioned
// per Reset; an optional mutant is re-applied each time.
type ModelExecutor struct {
	mutant *Mutant
	lab    *Lab
	// created tracks volume IDs created by POST steps; item-addressing
	// triggers (GET/PUT/DELETE) target the most recent one.
	created []string
	// violations accumulates monitor violations across deployments (each
	// Reset harvests the previous lab's outcome counters) — the oracle
	// signal for mutant kills.
	violations int
}

var _ mbt.Executor = (*ModelExecutor)(nil)

// NewModelExecutor returns an executor; mutant may be nil for a clean
// deployment.
func NewModelExecutor(mutant *Mutant) *ModelExecutor {
	return &ModelExecutor{mutant: mutant}
}

// Lab exposes the current deployment (for violation inspection after a
// run). Valid after the first Reset.
func (e *ModelExecutor) Lab() *Lab { return e.lab }

// Violations returns the total number of monitor violations observed
// across all deployments of this executor, including the current one.
func (e *ModelExecutor) Violations() int {
	total := e.violations
	if e.lab != nil {
		n, _ := e.lab.violations()
		total += n
	}
	return total
}

// Reset implements mbt.Executor.
func (e *ModelExecutor) Reset() error {
	if e.lab != nil {
		n, _ := e.lab.violations()
		e.violations += n
	}
	lab, err := NewLab()
	if err != nil {
		return err
	}
	if e.mutant != nil {
		if err := e.mutant.Apply(lab.Cloud); err != nil {
			return err
		}
	}
	e.lab = lab
	e.created = nil
	return nil
}

// Fire implements mbt.Executor.
func (e *ModelExecutor) Fire(step mbt.Step) (bool, error) {
	if e.lab == nil {
		return false, fmt.Errorf("mutation: executor not reset")
	}
	if step.Trigger.Resource != "volume" {
		return false, fmt.Errorf("mutation: executor only drives the volume resource, got %s",
			step.Trigger)
	}
	client := e.client(step.Role)
	collection := e.lab.volumesPath()
	target := "missing-volume"
	if len(e.created) > 0 {
		target = e.created[len(e.created)-1]
	}

	switch step.Trigger.Method {
	case uml.POST:
		var out struct {
			Volume cinder.Volume `json:"volume"`
		}
		in := map[string]map[string]any{"volume": {"name": "mbt", "size": 1}}
		status, err := client.Do(http.MethodPost, collection, in, &out, nil)
		if transportError(err) {
			return false, err
		}
		if permitted(status) {
			e.created = append(e.created, out.Volume.ID)
			return true, nil
		}
		return false, nil
	case uml.GET:
		status, err := client.Do(http.MethodGet, collection+"/"+target, nil, nil, nil)
		if transportError(err) {
			return false, err
		}
		return permitted(status), nil
	case uml.PUT:
		in := map[string]map[string]any{"volume": {"name": "renamed"}}
		status, err := client.Do(http.MethodPut, collection+"/"+target, in, nil, nil)
		if transportError(err) {
			return false, err
		}
		return permitted(status), nil
	case uml.DELETE:
		status, err := client.Do(http.MethodDelete, collection+"/"+target, nil, nil, nil)
		if transportError(err) {
			return false, err
		}
		if permitted(status) && len(e.created) > 0 {
			e.created = e.created[:len(e.created)-1]
			return true, nil
		}
		return permitted(status), nil
	default:
		return false, fmt.Errorf("mutation: unsupported trigger method %s", step.Trigger.Method)
	}
}

// client returns a monitor-facing client for the role ("" = anonymous).
func (e *ModelExecutor) client(role string) *osclient.Client {
	if role == "" {
		return e.lab.monClient.WithToken("")
	}
	return e.lab.as(role)
}

// permitted reports whether the status is a 2xx success.
func permitted(status int) bool { return status >= 200 && status <= 299 }

// transportError distinguishes infrastructure failures from HTTP-level
// denials (StatusError), which are expected experiment outcomes.
func transportError(err error) bool {
	if err == nil {
		return false
	}
	_, isStatus := err.(*osclient.StatusError)
	return !isStatus
}
