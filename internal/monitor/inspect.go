package monitor

import (
	"net/http"

	"cloudmon/internal/httpkit"
)

// InspectHandler returns an HTTP API over the monitor's counters and
// contracts — the paper's fourth use case: "an automated testing script,
// which uses CM as a test oracle" (Section III.B). The invocation results
// the paper logs "for further fault localization" are the verdicts the
// deployment's sinks record: the audit trail (every non-OK verdict) and
// the OnVerdict hook (every verdict; cloudmon -log-file).
//
//	GET /coverage     SecReq -> hit count (zero-hit requirements included)
//	GET /outcomes     outcome class -> count
//	GET /contracts    the generated contracts (trigger, URI, pre, post, plan)
//	GET /stages       per-pipeline-stage latency summaries (p50/p95/p99)
//	POST /reset       clear the counters and histograms
//
// Mount it beside the proxy, e.g. on a loopback-only listener.
func (m *Monitor) InspectHandler() http.Handler {
	rt := &httpkit.Router{}
	rt.Handle(http.MethodGet, "/coverage", func(w http.ResponseWriter, r *http.Request, _ map[string]string) error {
		httpkit.WriteJSON(w, http.StatusOK, map[string]any{
			"coverage":    m.Coverage(),
			"transitions": m.TransitionCoverage(),
		})
		return nil
	})
	rt.Handle(http.MethodGet, "/outcomes", func(w http.ResponseWriter, r *http.Request, _ map[string]string) error {
		counts := make(map[string]int)
		for outcome, n := range m.Outcomes() {
			counts[outcome.String()] = n
		}
		httpkit.WriteJSON(w, http.StatusOK, map[string]any{"outcomes": counts})
		return nil
	})
	rt.Handle(http.MethodGet, "/contracts", func(w http.ResponseWriter, r *http.Request, _ map[string]string) error {
		type preClauseDoc struct {
			Case  int      `json:"case"`
			Paths []string `json:"paths"`
		}
		type postClauseDoc struct {
			Case     int      `json:"case"`
			CurPaths []string `json:"cur_paths,omitempty"`
			PrePaths []string `json:"pre_paths,omitempty"`
			Touched  []string `json:"touched,omitempty"`
		}
		type planDoc struct {
			Pre      []preClauseDoc  `json:"pre"`
			Post     []postClauseDoc `json:"post"`
			PrePaths []string        `json:"pre_paths"`
		}
		type contractDoc struct {
			Trigger    string   `json:"trigger"`
			URI        string   `json:"uri"`
			Pre        string   `json:"pre"`
			Post       string   `json:"post"`
			SecReqs    []string `json:"sec_reqs"`
			StatePaths []string `json:"state_paths"`
			Plan       planDoc  `json:"plan"`
		}
		docs := make([]contractDoc, 0, len(m.contracts.Contracts))
		for _, c := range m.contracts.Contracts {
			plan := c.Plan()
			pd := planDoc{PrePaths: plan.PrePaths}
			for _, cl := range plan.Pre {
				pd.Pre = append(pd.Pre, preClauseDoc{Case: cl.Index, Paths: cl.Paths})
			}
			for _, cl := range plan.Post {
				pd.Post = append(pd.Post, postClauseDoc{
					Case: cl.Index, CurPaths: cl.CurPaths, PrePaths: cl.PrePaths,
					Touched: cl.Touched,
				})
			}
			docs = append(docs, contractDoc{
				Trigger:    c.Trigger.String(),
				URI:        c.URI,
				Pre:        c.PreText(),
				Post:       c.PostText(),
				SecReqs:    c.SecReqs,
				StatePaths: c.StatePaths(),
				Plan:       pd,
			})
		}
		httpkit.WriteJSON(w, http.StatusOK, map[string]any{"contracts": docs})
		return nil
	})
	rt.Handle(http.MethodGet, "/stages", func(w http.ResponseWriter, r *http.Request, _ map[string]string) error {
		httpkit.WriteJSON(w, http.StatusOK, map[string]any{"stages": m.StageSummaries()})
		return nil
	})
	rt.Handle(http.MethodPost, "/reset", func(w http.ResponseWriter, r *http.Request, _ map[string]string) error {
		m.ResetLog()
		w.WriteHeader(http.StatusNoContent)
		return nil
	})
	return rt
}
