package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	itemsketch "repro"
	"repro/internal/core"
)

func postJSON(t *testing.T, url, path string, payload string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("%s: undecodable body: %v", path, err)
	}
	return resp, body
}

func TestHTTPEndpoints(t *testing.T) {
	const d = 6
	cfg := testConfig(d)
	cfg.CheckpointDir = t.TempDir()
	s := mustNew(t, cfg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, body := postJSON(t, srv.URL, "/v1/ingest", `{"rows":[[0,1],[2],[0,5]]}`)
	if resp.StatusCode != http.StatusOK || body["accepted"].(float64) != 3 {
		t.Fatalf("ingest: %d %v", resp.StatusCode, body)
	}

	resp, body = postJSON(t, srv.URL, "/v1/estimate", `{"itemsets":[[0]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: %d %v", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Shards-Answered"); got != "4/4" {
		t.Fatalf("X-Shards-Answered %q, want 4/4", got)
	}
	ests := body["estimates"].([]any)
	if len(ests) != 1 {
		t.Fatalf("estimates %v", ests)
	}

	resp, body = postJSON(t, srv.URL, "/v1/mine", `{"min_support":0.2,"max_k":2}`)
	if resp.StatusCode != http.StatusOK || body["results"] == nil {
		t.Fatalf("mine: %d %v", resp.StatusCode, body)
	}

	resp, body = postJSON(t, srv.URL, "/v1/heavyhitters", `{"phi":0.2}`)
	if resp.StatusCode != http.StatusOK || body["items"] == nil {
		t.Fatalf("heavyhitters: %d %v", resp.StatusCode, body)
	}

	resp, body = postJSON(t, srv.URL, "/v1/checkpoint", `{}`)
	if resp.StatusCode != http.StatusOK || body["checkpointed"] != true {
		t.Fatalf("checkpoint: %d %v", resp.StatusCode, body)
	}

	resp, _ = postJSON(t, srv.URL, "/healthz", ``)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL, "/readyz", ``)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}
}

func TestHTTPValidationFailures(t *testing.T) {
	s := mustNew(t, testConfig(4))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	cases := []struct {
		path, payload string
		wantStatus    int
	}{
		{"/v1/ingest", `{"rows":[[0,9]]}`, http.StatusBadRequest},       // attr out of range
		{"/v1/ingest", `{"rowz":[[0]]}`, http.StatusBadRequest},         // unknown field
		{"/v1/ingest", `not json`, http.StatusBadRequest},               // malformed
		{"/v1/estimate", `{"itemsets":[[0,0]]}`, http.StatusBadRequest}, // duplicate attr
		{"/v1/estimate", `{"itemsets":[[7]]}`, http.StatusBadRequest},   // beyond universe
		{"/v1/heavyhitters", `{"phi":0}`, http.StatusBadRequest},
		{"/v1/heavyhitters", `{"phi":1.5}`, http.StatusBadRequest},
		{"/v1/mine", `{"min_support":-1,"max_k":2}`, http.StatusBadRequest},
		{"/v1/mine", `{"min_support":0,"max_k":2}`, http.StatusBadRequest},
		{"/v1/mine", `{"min_support":1.5,"max_k":2}`, http.StatusBadRequest},
		{"/v1/mine", `{"min_support":0.2,"max_k":0}`, http.StatusBadRequest},
		{"/v1/mine", `{"min_support":0.2,"max_k":-3}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, srv.URL, c.path, c.payload)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s %s: status %d, want %d (%v)", c.path, c.payload, resp.StatusCode, c.wantStatus, body)
		}
		if body["shards"] == nil {
			t.Errorf("%s %s: error body without shards object", c.path, c.payload)
		}
		if body["error"] == nil {
			t.Errorf("%s %s: error body without error field", c.path, c.payload)
		}
		if msg, _ := body["error"].(string); c.path == "/v1/mine" &&
			!strings.Contains(msg, "min_support") && !strings.Contains(msg, "max_k") {
			t.Errorf("%s %s: error %q does not name the rejected field", c.path, c.payload, msg)
		}
	}
}

func TestHTTPMethodGuards(t *testing.T) {
	s := mustNew(t, testConfig(4))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, path := range []string{"/v1/ingest", "/v1/estimate", "/v1/mine", "/v1/heavyhitters", "/v1/checkpoint", "/v1/kill"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: %d, want 405", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/shards/0/sketch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST sketch: %d, want 405", resp.StatusCode)
	}
}

func TestHTTPCheckpointNotConfigured(t *testing.T) {
	s := mustNew(t, testConfig(4)) // no CheckpointDir
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, _ := postJSON(t, srv.URL, "/v1/checkpoint", `{}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint without dir: %d, want 409", resp.StatusCode)
	}
}

func TestHTTPAllDeadReturns503WithShards(t *testing.T) {
	s := mustNew(t, testConfig(4))
	for i := 0; i < s.NumShards(); i++ {
		s.KillShard(i)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, body := postJSON(t, srv.URL, "/v1/estimate", `{"itemsets":[[0]]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-dead estimate: %d, want 503", resp.StatusCode)
	}
	shards := body["shards"].(map[string]any)
	if shards["answered"].(float64) != 0 || shards["total"].(float64) != 4 {
		t.Fatalf("503 body shards %v, want 0/4", shards)
	}
	resp, _ = postJSON(t, srv.URL, "/readyz", ``)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-dead readyz: %d, want 503", resp.StatusCode)
	}
}

// TestHTTPShardSketchReplication: the per-shard sketch endpoint streams
// a standard envelope that round-trips through the public codec.
func TestHTTPShardSketchReplication(t *testing.T) {
	const d = 5
	s := mustNew(t, testConfig(d))
	if _, err := s.Ingest(context.Background(), genRows(800, d, 21)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/shards/0/sketch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sketch: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Shard-Seen") == "" {
		t.Fatal("replication stream lacks X-Shard-Seen")
	}
	sk, err := itemsketch.UnmarshalFrom(resp.Body)
	if err != nil {
		t.Fatalf("replicated envelope did not decode: %v", err)
	}
	holder, ok := sk.(core.SampleHolder)
	if !ok {
		t.Fatalf("replicated sketch %s is not sample-backed", sk.Name())
	}
	if holder.Sample().NumCols() != d {
		t.Fatalf("replicated sample has %d cols, want %d", holder.Sample().NumCols(), d)
	}

	for _, path := range []string{"/v1/shards/9/sketch", "/v1/shards/x/sketch", "/v1/shards/0/nope"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
	s.KillShard(1)
	resp, err = http.Get(srv.URL + "/v1/shards/1/sketch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("dead shard sketch: %d, want 503", resp.StatusCode)
	}
}
