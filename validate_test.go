package mobisense

import (
	"context"
	"math"
	"net/http"
	"strings"
	"testing"
)

// TestConfigRejectsNonFinite pins the validation of every real-valued
// run parameter: NaN fails all ordered comparisons and ±Inf passes the
// one-sided ones, so each must be rejected explicitly — on a direct Run,
// through every numeric sweep axis, and through the -axis/serve parser.
func TestConfigRejectsNonFinite(t *testing.T) {
	setters := []struct {
		name string
		set  func(cfg *Config, v float64)
	}{
		{"rc", func(cfg *Config, v float64) { cfg.Rc = v }},
		{"rs", func(cfg *Config, v float64) { cfg.Rs = v }},
		{"speed", func(cfg *Config, v float64) { cfg.Speed = v }},
		{"period", func(cfg *Config, v float64) { cfg.Period = v }},
		{"duration", func(cfg *Config, v float64) { cfg.Duration = v }},
		{"coverage_res", func(cfg *Config, v float64) { cfg.CoverageRes = v }},
	}
	base := DefaultConfig(SchemeFLOOR)
	base.N = 10
	base.Duration = 5
	if err := base.validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
	for _, s := range setters {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := base
			s.set(&cfg, v)
			if _, err := Run(cfg); err == nil {
				t.Errorf("Run with %s=%v succeeded, want an error", s.name, v)
			}
		}
	}
	for _, info := range Axes() {
		if info.String {
			continue
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			sweep := Sweep{Base: base, Axes: []AxisSpec{{Name: info.Name, Values: []float64{v}}}}
			if _, err := sweep.Expand(); err == nil {
				t.Errorf("sweep axis %s=%v expanded, want an error", info.Name, v)
			}
		}
	}
	for _, spec := range []string{"rc=NaN", "rs=60,+Inf", "speed=-Inf", "cpvf.delta=nan"} {
		if _, err := ParseAxis(spec); err == nil {
			t.Errorf("ParseAxis(%q) succeeded, want an error", spec)
		}
	}
}

// TestConfigRejectsUnknownOscillation: an unknown CPVF oscillation mode
// is an error at every entry point instead of silently running "none".
func TestConfigRejectsUnknownOscillation(t *testing.T) {
	cfg := DefaultConfig(SchemeCPVF)
	cfg.N = 10
	cfg.Duration = 5
	for _, mode := range []string{"", "none", "one-step", "two-step"} {
		cfg.CPVF = &CPVFOptions{Oscillation: mode}
		if err := cfg.validate(); err != nil {
			t.Errorf("oscillation %q rejected: %v", mode, err)
		}
	}
	cfg.CPVF = &CPVFOptions{Oscillation: "two_step"}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "two_step") {
		t.Errorf("Run with oscillation two_step: err = %v, want an unknown-mode error", err)
	}
	sr, err := Sweep{Base: cfg, Schemes: []Scheme{SchemeCPVF}}.Run(context.Background(), BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Aggregates) != 1 || sr.Aggregates[0].Errors != 1 {
		t.Errorf("sweep aggregates = %+v, want one failed run", sr.Aggregates)
	}

	svc, ts := startService(t, t.TempDir(), 1)
	defer ts.Close()
	defer svc.Close()
	body := `{"scheme":"cpvf","n":10,"duration":5,"cpvf":{"Oscillation":"two_step"}}`
	if _, status := postJSON(t, ts.URL+"/v1/runs", body); status != http.StatusBadRequest {
		t.Errorf("serve run with oscillation two_step: status %d, want 400", status)
	}
	if _, status := postJSON(t, ts.URL+"/v1/sweeps", body); status != http.StatusBadRequest {
		t.Errorf("serve sweep with oscillation two_step: status %d, want 400", status)
	}
}

// TestRequestRejectsNegativeNumbers: a negative number anywhere in a
// request is a 400 naming its field, on /v1/runs and /v1/sweeps alike,
// instead of running (or cache-hitting) the default. Zero still takes
// the default.
func TestRequestRejectsNegativeNumbers(t *testing.T) {
	svc, ts := startService(t, t.TempDir(), 1)
	defer ts.Close()
	defer svc.Close()
	for _, tc := range []struct{ body, field string }{
		{`{"scheme":"opt","n":-5}`, "n"},
		{`{"scheme":"opt","n":-5,"rc":-60}`, "n"},
		{`{"scheme":"opt","rc":-60}`, "rc"},
		{`{"scheme":"opt","rs":-1}`, "rs"},
		{`{"scheme":"opt","speed":-2}`, "speed"},
		{`{"scheme":"opt","duration":-750}`, "duration"},
		{`{"scheme":"opt","coverage_res":-5}`, "coverage_res"},
		{`{"scheme":"cpvf","cpvf":{"Delta":-3}}`, "cpvf.Delta"},
		{`{"scheme":"floor","floor":{"TTL":-1}}`, "floor.TTL"},
	} {
		for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
			body, status := readAll(t, mustPost(t, ts.URL+path, tc.body))
			if status != http.StatusBadRequest || !strings.Contains(string(body), tc.field+" must be") {
				t.Errorf("POST %s %s: status %d, body %s; want 400 naming %s", path, tc.body, status, body, tc.field)
			}
		}
	}
	// Axis values follow the same rule; only sweeps have axes.
	for _, tc := range []struct{ body, axis string }{
		{`{"scheme":"floor","axes":[{"name":"floor.ttl","values":[-5,0]}]}`, "floor.ttl"},
		{`{"scheme":"cpvf","axes":[{"name":"cpvf.delta","values":[-3,0]},{"name":"cpvf.osc","strings":["two-step"]}]}`, "cpvf.delta"},
		{`{"scheme":"floor","axes":[{"name":"field.density","values":[-0.3]}]}`, "field.density"},
	} {
		body, status := readAll(t, mustPost(t, ts.URL+"/v1/sweeps", tc.body))
		if status != http.StatusBadRequest || !strings.Contains(string(body), `axis \"`+tc.axis+`\" values must be`) {
			t.Errorf("POST /v1/sweeps %s: status %d, body %s; want 400 naming axis %s", tc.body, status, body, tc.axis)
		}
	}
	if _, status := postJSON(t, ts.URL+"/v1/runs", `{"scheme":"opt","n":0,"rc":0,"duration":0}`); status != http.StatusAccepted {
		t.Errorf("zero numbers: status %d, want 202", status)
	}
}

// TestSweepRefusesFieldSeed: a sweep derives each repeat's field from its
// seed, so a field_seed would change its identity and none of its runs;
// /v1/sweeps answers 400 for one, while /v1/runs still takes it.
func TestSweepRefusesFieldSeed(t *testing.T) {
	svc, ts := startService(t, t.TempDir(), 1)
	defer ts.Close()
	defer svc.Close()
	body := `{"scheme":"floor","n":10,"duration":10,"scenario":"random-obstacles","field_seed":2}`
	msg, status := readAll(t, mustPost(t, ts.URL+"/v1/sweeps", body))
	if status != http.StatusBadRequest || !strings.Contains(string(msg), "field_seed applies to single runs") {
		t.Errorf("sweep with field_seed: status %d, body %s; want 400", status, msg)
	}
	if _, status := postJSON(t, ts.URL+"/v1/runs", body); status != http.StatusAccepted {
		t.Errorf("run with field_seed: status %d, want 202", status)
	}
}

func mustPost(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
