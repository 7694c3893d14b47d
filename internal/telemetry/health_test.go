package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHealthEndpoints(t *testing.T) {
	h := NewHealth()
	// Registered out of name order, so the sorted-reasons check has work.
	var journalDegraded, shardLost bool
	h.AddCheck("shard-3", func() (bool, string) { return !shardLost, "" })
	h.AddCheck("checkpoint", func() (bool, string) {
		return !journalDegraded, "journal degraded after storage failures"
	})

	get := func(hd http.Handler) (int, healthDoc) {
		rr := httptest.NewRecorder()
		hd.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
		var doc healthDoc
		if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil {
			t.Fatalf("bad health document %q: %v", rr.Body.String(), err)
		}
		return rr.Code, doc
	}

	if code, doc := get(h.LiveHandler()); code != 200 || doc.Status != "ok" {
		t.Fatalf("/livez = %d %+v, want 200 ok", code, doc)
	}
	if code, _ := get(h.ReadyHandler()); code != 200 {
		t.Fatalf("/readyz = %d, want 200 while ready", code)
	}

	journalDegraded, shardLost = true, true
	code, doc := get(h.ReadyHandler())
	if code != http.StatusServiceUnavailable || doc.Status != "unready" {
		t.Fatalf("/readyz = %d %+v, want 503 unready", code, doc)
	}
	if len(doc.Reasons) != 2 || !strings.Contains(doc.Reasons[0], "checkpoint") {
		t.Fatalf("reasons = %v, want sorted checkpoint+shard-3", doc.Reasons)
	}
	// Liveness is unconditional: a degraded service is still alive.
	if code, _ := get(h.LiveHandler()); code != 200 {
		t.Fatal("/livez flipped with readiness")
	}

	// Recovery clears the component.
	journalDegraded, shardLost = false, false
	if code, _ := get(h.ReadyHandler()); code != 200 {
		t.Fatalf("/readyz = %d after recovery, want 200", code)
	}

	// Nil-safety: always live, always ready.
	var nh *Health
	nh.AddCheck("x", func() (bool, string) { return false, "y" })
	if ok, _ := nh.Ready(); !ok {
		t.Fatal("nil Health not ready")
	}
	if code, _ := get(nh.ReadyHandler()); code != 200 {
		t.Fatal("nil Health /readyz not 200")
	}
}

func TestAlertReplaceRules(t *testing.T) {
	reg := New()
	var lines []string
	eng := NewAlertEngine(reg, func(format string, args ...any) {
		lines = append(lines, format)
	})
	always := func(*Snapshot) float64 { return 1 }
	eng.AddRule(Rule{Name: "old-ceiling", Value: always, Op: OpAbove, Threshold: 0})
	eng.AddRule(Rule{Name: "kept-floor", Value: always, Op: OpBelow, Threshold: 5})
	if got := eng.Evaluate(); len(got) != 2 {
		t.Fatalf("firing = %v, want both rules", got)
	}

	// Reload: old-ceiling disappears, kept-floor survives, new-floor lands.
	eng.ReplaceRules([]Rule{
		{Name: "kept-floor", Value: always, Op: OpBelow, Threshold: 5},
		{Name: "new-floor", Value: always, Op: OpBelow, Threshold: 10},
		{Name: "", Value: always}, // invalid: dropped
	})
	got := eng.Evaluate()
	if len(got) != 2 || got[0] != "kept-floor" || got[1] != "new-floor" {
		t.Fatalf("firing after reload = %v, want [kept-floor new-floor]", got)
	}
	// The removed rule's gauge was cleared, not left stuck at 1.
	if v := reg.Gauge(Name("alert_firing", "alert", "old-ceiling")).Value(); v != 0 {
		t.Errorf("removed rule's firing gauge = %d, want 0", v)
	}
	var resolved bool
	for _, l := range lines {
		if strings.Contains(l, "rule removed by reload") {
			resolved = true
		}
	}
	if !resolved {
		t.Error("no resolution logged for the removed firing rule")
	}

	// Nil-safety.
	var ne *AlertEngine
	ne.ReplaceRules([]Rule{{Name: "x", Value: always}})
}

func TestHealthDynamicCheck(t *testing.T) {
	h := NewHealth()
	degraded := false
	h.AddCheck("checkpoint", func() (bool, string) {
		if degraded {
			return false, "journal degraded"
		}
		return true, ""
	})
	if ok, _ := h.Ready(); !ok {
		t.Fatal("ready=false with healthy check")
	}
	degraded = true
	ok, reasons := h.Ready()
	if ok || len(reasons) != 1 || !strings.Contains(reasons[0], "journal degraded") {
		t.Fatalf("ready=%v reasons=%v, want unready with journal reason", ok, reasons)
	}
	degraded = false
	if ok, _ := h.Ready(); !ok {
		t.Fatal("check recovery did not restore readiness")
	}
	// Nil-safety.
	var nh *Health
	nh.AddCheck("x", func() (bool, string) { return false, "" })
}
