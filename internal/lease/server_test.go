package lease

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pef/internal/telemetry"
)

// postJSON drives one protocol request against a test server and
// returns the status code and raw body.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

func TestHandlerProtocol(t *testing.T) {
	clock := newFakeClock()
	reg := telemetry.NewRegistry()
	c := newTestCoordinator(t, clock, func(cfg *Config) { cfg.Registry = reg })
	ts := httptest.NewServer(Handler(c))
	defer ts.Close()

	// Lease a block over the wire.
	code, body := postJSON(t, ts.URL+"/lease", LeaseRequest{Worker: "w"})
	if code != http.StatusOK {
		t.Fatalf("/lease: HTTP %d: %s", code, body)
	}
	var lr LeaseResponse
	if err := json.Unmarshal(body, &lr); err != nil || lr.Grant == nil {
		t.Fatalf("/lease response %s: grant=%v err=%v", body, lr.Grant, err)
	}
	g := *lr.Grant

	// A live heartbeat succeeds; a fenced token earns 409 Conflict with
	// a JSON error body.
	code, _ = postJSON(t, ts.URL+"/heartbeat", HeartbeatRequest{Worker: "w", Block: g.Block, Token: g.Token})
	if code != http.StatusOK {
		t.Fatalf("live heartbeat: HTTP %d", code)
	}
	code, body = postJSON(t, ts.URL+"/heartbeat", HeartbeatRequest{Worker: "x", Block: g.Block, Token: g.Token + 1})
	if code != http.StatusConflict {
		t.Fatalf("stale heartbeat: HTTP %d, want 409", code)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "stale") {
		t.Fatalf("stale heartbeat body %s: %v", body, err)
	}

	// A stale ack is 409 too; a malformed ack payload is 400.
	code, _ = postJSON(t, ts.URL+"/ack", AckRequest{Worker: "x", Block: g.Block, Token: g.Token + 1})
	if code != http.StatusConflict {
		t.Fatalf("stale ack: HTTP %d, want 409", code)
	}
	code, _ = postJSON(t, ts.URL+"/ack", AckRequest{
		Worker: "w", Block: g.Block, Token: g.Token, Checkpoint: json.RawMessage(`"garbage"`),
	})
	if code != http.StatusBadRequest {
		t.Fatalf("garbage ack: HTTP %d, want 400", code)
	}

	// A valid ack lands and reports non-duplicate.
	ckpt := blockCheckpoint(t, c.Campaign(), g.Block)
	code, body = postJSON(t, ts.URL+"/ack", AckRequest{
		Worker: "w", Block: g.Block, Token: g.Token, Checkpoint: ckpt,
	})
	if code != http.StatusOK {
		t.Fatalf("valid ack: HTTP %d: %s", code, body)
	}
	var ar AckResponse
	if err := json.Unmarshal(body, &ar); err != nil || ar.Duplicate {
		t.Fatalf("ack response %s: %v", body, err)
	}

	// Introspection: /status mirrors the fabric, /metrics the registry.
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.Acked != 1 || st.Blocks != c.Campaign().Blocks {
		t.Fatalf("/status %+v: %v", st, err)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var snap telemetry.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil || snap.Counters["lease.granted"] != 1 || snap.Counters["lease.ackStale"] != 1 {
		t.Fatalf("/metrics %+v: %v", snap, err)
	}

	// Malformed request bodies are 400, unknown paths 404.
	resp, err = http.Post(ts.URL+"/lease", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatalf("POST /lease malformed: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatalf("GET /nope: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/nope: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestHandlerRejectsLooseBodies: every protocol body decodes strictly —
// an undeclared field or bytes after the JSON value are a 400 and touch
// no lease state.
func TestHandlerRejectsLooseBodies(t *testing.T) {
	c := newTestCoordinator(t, newFakeClock(), nil)
	ts := httptest.NewServer(Handler(c))
	defer ts.Close()
	for _, tc := range []struct{ path, body, want string }{
		{"/lease", `{"worker":"w","wroker":"x"}`, `unknown field "wroker"`},
		{"/lease", `{"worker":"w"} {"worker":"x"}`, "trailing data"},
		{"/heartbeat", `{"worker":"w","block":0,"token":1,"epoch":2}`, `unknown field "epoch"`},
		{"/heartbeat", `{"worker":"w","block":0,"token":1}garbage`, "trailing data"},
		{"/ack", `{"worker":"w","block":0,"token":1,"checkpoint":{},"sum":3}`, `unknown field "sum"`},
		{"/ack", `{"worker":"w","block":0,"token":1,"checkpoint":{}}]`, "trailing data"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		var eb errorBody
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &eb) != nil ||
			!strings.Contains(eb.Error, tc.want) {
			t.Errorf("POST %s %s: HTTP %d %s, want 400 with %q", tc.path, tc.body, resp.StatusCode, data, tc.want)
		}
	}
	if st := c.Status(); st.Granted != 0 {
		t.Fatalf("rejected bodies changed lease state: %+v", st)
	}
}

func TestServeBackgroundExpiry(t *testing.T) {
	// A real-clock coordinator with a tiny timeout: the server's expiry
	// ticker must lapse a silent lease with no request traffic at all.
	c, err := New(Config{
		Campaign: Campaign{
			Generator: "uniform",
			Count:     8,
			Seeds:     []uint64{1},
			Blocks:    2,
		},
		HeartbeatTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv, err := Serve("127.0.0.1:0", "", c)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	if resp := c.Lease("silent"); resp.Grant == nil {
		t.Fatalf("lease: %+v", resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Status().Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background ticker never expired the silent lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
