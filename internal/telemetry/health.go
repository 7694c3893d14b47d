package telemetry

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// Health tracks a long-running service's liveness and readiness for the
// /livez and /readyz endpoints. Liveness is unconditional — the process is
// alive as long as it answers. Readiness aggregates per-component probes:
// any probe reporting unready (a degraded checkpoint journal, a lost
// shard) flips /readyz to 503 with the reasons listed, which is what a
// supervisor or load balancer keys restarts and traffic on. All methods
// are safe for concurrent use; a nil *Health is a valid always-ready no-op
// so wiring the endpoints is unconditional.
type Health struct {
	mu     sync.Mutex
	checks []healthCheck // probes, evaluated per request
}

type healthCheck struct {
	component string
	probe     func() (ready bool, reason string)
}

// NewHealth returns a Health that is ready until a probe reports
// otherwise.
func NewHealth() *Health {
	return &Health{}
}

// AddCheck registers a readiness probe evaluated on every Ready call (and
// therefore every /readyz request), for states that live elsewhere, like a
// telemetry gauge. Nil-safe.
func (h *Health) AddCheck(component string, probe func() (ready bool, reason string)) {
	if h == nil || component == "" || probe == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.checks = append(h.checks, healthCheck{component, probe})
}

// Ready reports overall readiness and the sorted "component: reason" list
// when not. Nil-safe (always ready).
func (h *Health) Ready() (bool, []string) {
	if h == nil {
		return true, nil
	}
	h.mu.Lock()
	checks := h.checks
	h.mu.Unlock()
	var reasons []string
	// Probes run outside the mutex: they may consult other locked state
	// (telemetry snapshots) and must not be able to deadlock /readyz.
	for _, c := range checks {
		if ok, reason := c.probe(); !ok {
			if reason == "" {
				reason = "unready"
			}
			reasons = append(reasons, c.component+": "+reason)
		}
	}
	if len(reasons) == 0 {
		return true, nil
	}
	sort.Strings(reasons)
	return false, reasons
}

// healthDoc is the /livez and /readyz JSON document.
type healthDoc struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
}

// LiveHandler serves /livez: always 200 — the process answering is the
// check.
func (h *Health) LiveHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeHealth(w, http.StatusOK, healthDoc{Status: "ok"})
	})
}

// ReadyHandler serves /readyz: 200 while every component is ready, 503
// with the reasons once any is not.
func (h *Health) ReadyHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if ok, reasons := h.Ready(); !ok {
			writeHealth(w, http.StatusServiceUnavailable, healthDoc{Status: "unready", Reasons: reasons})
			return
		}
		writeHealth(w, http.StatusOK, healthDoc{Status: "ok"})
	})
}

func writeHealth(w http.ResponseWriter, code int, doc healthDoc) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&doc)
}
