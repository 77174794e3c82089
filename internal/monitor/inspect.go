package monitor

import (
	"net/http"
	"sort"

	"cloudmon/internal/httpkit"
	"cloudmon/internal/ocl"
)

// InspectHandler returns an HTTP API over the monitor's verdict log and
// coverage counters — the paper's fourth use case: "an automated testing
// script, which uses CM as a test oracle ... invocation results can be
// logged for further fault localization" (Section III.B).
//
//	GET /log          full verdict log (oldest first)
//	GET /violations   only contract violations
//	GET /coverage     SecReq -> hit count (zero-hit requirements included)
//	GET /outcomes     outcome class -> count
//	GET /contracts    the generated contracts (trigger, URI, pre, post, plan)
//	GET /stats        per-trigger verdict counts and monitoring cost
//	GET /stages       per-pipeline-stage latency summaries (p50/p95/p99)
//	POST /reset       clear the log and counters
//
// Mount it beside the proxy, e.g. on a loopback-only listener.
func (m *Monitor) InspectHandler() http.Handler {
	rt := &httpkit.Router{}
	rt.Handle(http.MethodGet, "/log", func(w http.ResponseWriter, r *http.Request, _ map[string]string) error {
		httpkit.WriteJSON(w, http.StatusOK, map[string]any{"verdicts": verdictDocs(m.Log())})
		return nil
	})
	rt.Handle(http.MethodGet, "/violations", func(w http.ResponseWriter, r *http.Request, _ map[string]string) error {
		httpkit.WriteJSON(w, http.StatusOK, map[string]any{"verdicts": verdictDocs(m.Violations())})
		return nil
	})
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
			Added []string `json:"added,omitempty"`
			Cost  int      `json:"cost"`
		}
		type postClauseDoc struct {
			Case     int      `json:"case"`
			CurPaths []string `json:"cur_paths,omitempty"`
			PrePaths []string `json:"pre_paths,omitempty"`
			Touched  []string `json:"touched,omitempty"`
			Cost     int      `json:"cost"`
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
				pd.Pre = append(pd.Pre, preClauseDoc{
					Case: cl.Index, Paths: cl.Paths, Added: cl.Added, Cost: cl.Cost,
				})
			}
			for _, cl := range plan.Post {
				pd.Post = append(pd.Post, postClauseDoc{
					Case: cl.Index, CurPaths: cl.CurPaths, PrePaths: cl.PrePaths,
					Touched: cl.Touched, Cost: cl.Cost,
				})
			}
			docs = append(docs, contractDoc{
				Trigger:    c.Trigger.String(),
				URI:        c.URI,
				Pre:        c.Pre.String(),
				Post:       c.Post.String(),
				SecReqs:    c.SecReqs,
				StatePaths: c.StatePaths(),
				Plan:       pd,
			})
		}
		httpkit.WriteJSON(w, http.StatusOK, map[string]any{"contracts": docs})
		return nil
	})
	rt.Handle(http.MethodGet, "/stats", func(w http.ResponseWriter, r *http.Request, _ map[string]string) error {
		httpkit.WriteJSON(w, http.StatusOK, map[string]any{"stats": m.Stats()})
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

// TriggerStats summarizes the monitoring cost and outcomes per trigger,
// computed from the in-memory verdict log.
type TriggerStats struct {
	Trigger    string         `json:"trigger"`
	Count      int            `json:"count"`
	MeanMicros int64          `json:"mean_micros"`
	MaxMicros  int64          `json:"max_micros"`
	Outcomes   map[string]int `json:"outcomes"`
}

// Stats aggregates the verdict log per trigger, sorted by trigger name.
func (m *Monitor) Stats() []TriggerStats {
	byTrigger := make(map[string]*TriggerStats)
	var totalMicros = make(map[string]int64)
	for _, v := range m.Log() {
		key := v.Trigger.String()
		st, ok := byTrigger[key]
		if !ok {
			st = &TriggerStats{Trigger: key, Outcomes: make(map[string]int)}
			byTrigger[key] = st
		}
		st.Count++
		micros := v.Elapsed.Microseconds()
		totalMicros[key] += micros
		if micros > st.MaxMicros {
			st.MaxMicros = micros
		}
		st.Outcomes[v.Outcome.String()]++
	}
	out := make([]TriggerStats, 0, len(byTrigger))
	for key, st := range byTrigger {
		if st.Count > 0 {
			st.MeanMicros = totalMicros[key] / int64(st.Count)
		}
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Trigger < out[j].Trigger })
	return out
}

// verdictDoc is the JSON shape of one verdict.
type verdictDoc struct {
	Trigger        string            `json:"trigger"`
	Outcome        string            `json:"outcome"`
	PreOK          bool              `json:"pre_ok"`
	PostOK         bool              `json:"post_ok"`
	Forwarded      bool              `json:"forwarded"`
	BackendStatus  int               `json:"backend_status,omitempty"`
	SecReqs        []string          `json:"sec_reqs,omitempty"`
	MatchedSecReqs []string          `json:"matched_sec_reqs,omitempty"`
	FailingClause  string            `json:"failing_clause,omitempty"`
	Detail         string            `json:"detail,omitempty"`
	FetchedPaths   int               `json:"fetched_paths"`
	ReusedPaths    int               `json:"reused_paths,omitempty"`
	ElapsedMicros  int64             `json:"elapsed_micros"`
	StageNanos     map[string]int64  `json:"stage_nanos,omitempty"`
	PreSnapshot    map[string]string `json:"pre_snapshot,omitempty"`
	PostSnapshot   map[string]string `json:"post_snapshot,omitempty"`
}

func verdictDocs(vs []Verdict) []verdictDoc {
	docs := make([]verdictDoc, 0, len(vs))
	for _, v := range vs {
		docs = append(docs, verdictDoc{
			Trigger:        v.Trigger.String(),
			Outcome:        v.Outcome.String(),
			PreOK:          v.PreOK,
			PostOK:         v.PostOK,
			Forwarded:      v.Forwarded,
			BackendStatus:  v.BackendStatus,
			SecReqs:        v.SecReqs,
			MatchedSecReqs: v.MatchedSecReqs,
			FailingClause:  v.FailingClause,
			Detail:         v.Detail,
			FetchedPaths:   v.FetchedPaths,
			ReusedPaths:    v.ReusedPaths,
			ElapsedMicros:  v.Elapsed.Microseconds(),
			StageNanos:     v.Trace.Map(),
			PreSnapshot:    snapshotDoc(v.PreSnapshot),
			PostSnapshot:   snapshotDoc(v.PostSnapshot),
		})
	}
	return docs
}

// snapshotDoc renders a snapshot environment with OCL literal syntax —
// the values the verdict was computed from, for fault localization.
func snapshotDoc(env ocl.MapEnv) map[string]string {
	if len(env) == 0 {
		return nil
	}
	out := make(map[string]string, len(env))
	keys := env.Keys()
	sort.Strings(keys)
	for _, k := range keys {
		out[k] = env[k].String()
	}
	return out
}
