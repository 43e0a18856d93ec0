package telemetry_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pef/internal/lease"
	"pef/internal/scenario"
	"pef/internal/serve"
	"pef/internal/telemetry"
)

// TestServeEndToEnd boots every listener of the shared skeleton on a
// free port — the introspection endpoint, the lease fabric and the
// campaign service — and checks the base routes each serves: /metrics
// as the indented JSON of its snapshot, a pprof route, and a / index
// naming the listener's own routes. The two started through
// ServeHandler also write their bound address to an addr-file.
func TestServeEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("runs").Add(42)
	reg.Hist("margin").Observe(7)

	leaseReg := telemetry.NewRegistry()
	coord, err := lease.New(lease.Config{
		Campaign: lease.Campaign{Generator: "uniform", Count: 4, Seeds: []uint64{1}, Blocks: 2},
		Registry: leaseReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := scenario.NewTelemetry()

	for _, tc := range []struct {
		name     string
		handler  http.Handler // nil: the telemetry.Serve endpoint
		snapshot func() telemetry.Snapshot
		routes   []string
	}{
		{"telemetry", nil, reg.Snapshot, []string{"pef telemetry endpoint", "GET /metrics", "/debug/pprof/"}},
		{"lease", lease.Handler(coord), leaseReg.Snapshot,
			[]string{"pefcoord lease fabric", "POST /lease", "POST /heartbeat", "POST /ack", "GET /status", "/debug/pprof/"}},
		{"serve", serve.New(serve.Config{Telemetry: tel}), tel.Snapshot,
			[]string{"pefserve campaign service", "POST /run", "POST /campaign", "GET /healthz", "/debug/pprof/"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var srv *telemetry.Server
			var err error
			if tc.handler == nil {
				srv, err = telemetry.Serve("127.0.0.1:0", tc.snapshot)
			} else {
				addrFile := filepath.Join(t.TempDir(), "addr")
				srv, err = telemetry.ServeHandler("127.0.0.1:0", addrFile, tc.handler)
				if err == nil {
					if data, rerr := os.ReadFile(addrFile); rerr != nil || string(data) != srv.Addr() {
						t.Errorf("addr-file holds %q (%v), want %q", data, rerr, srv.Addr())
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			get := func(path string) (int, string, []byte) {
				resp, err := http.Get("http://" + srv.Addr() + path)
				if err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return resp.StatusCode, resp.Header.Get("Content-Type"), body
			}

			want, err := json.MarshalIndent(tc.snapshot(), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if code, ctype, body := get("/metrics"); code != http.StatusOK || ctype != "application/json" ||
				string(body) != string(want)+"\n" {
				t.Fatalf("/metrics: status %d, type %q, body\n%s\nwant\n%s", code, ctype, body, want)
			}
			if code, _, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
				t.Fatalf("/debug/pprof/cmdline status %d", code)
			}
			code, _, body := get("/")
			if code != http.StatusOK {
				t.Fatalf("index status %d", code)
			}
			for _, route := range tc.routes {
				if !strings.Contains(string(body), route) {
					t.Errorf("index lacks %q:\n%s", route, body)
				}
			}
			if code, _, _ := get("/nope"); code != http.StatusNotFound {
				t.Fatalf("unknown path status %d, want 404", code)
			}
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
		})
	}
	var none *telemetry.Server
	if err := none.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

// FuzzRequestBody feeds arbitrary bytes to DecodeJSON as the body of
// each request type the listeners accept: the /run spec, the /campaign
// request and the three lease protocol bodies. It must never panic, and
// every body it accepts must re-encode to a body it accepts again whose
// value encodes to the same bytes — equal up to JSON's own
// normalisation (an empty list and an absent one, whitespace inside the
// raw ack checkpoint). It only decodes; nothing runs. The seed corpus
// is real encoded requests.
//
//	go test -run '^$' -fuzz '^FuzzRequestBody$' -fuzztime 10s ./internal/telemetry/
func FuzzRequestBody(f *testing.F) {
	spec := scenario.Spec{
		Version:   scenario.Version,
		Ring:      8,
		Robots:    3,
		Algorithm: "pef3+",
		Placement: scenario.PlaceEven,
		Family:    "bernoulli",
		Params:    scenario.Params{P: 0.5},
		Horizon:   200,
		Seed:      7,
	}
	enc, err := spec.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	ccfg := scenario.CampaignConfig{Generator: "boundary", Gen: scenario.GenConfig{MaxRing: 6}, Count: 2, Seeds: []uint64{1}}
	agg, err := scenario.NewAggregate(ccfg)
	if err != nil {
		f.Fatal(err)
	}
	for v, serr := range scenario.StreamCampaign(context.Background(), ccfg) {
		if serr != nil {
			f.Fatal(serr)
		}
		agg.Add(v)
	}
	ckpt, err := agg.Checkpoint().Encode()
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range []any{
		serve.CampaignRequest{Generator: "boundary", Gen: scenario.GenConfig{MaxRing: 8}, Count: 200, Seeds: []uint64{1, 2}, Verdicts: true},
		lease.LeaseRequest{Worker: "w1"},
		lease.HeartbeatRequest{Worker: "w1", Block: 2, Token: 7},
		lease.AckRequest{Worker: "w1", Block: 2, Token: 7, Checkpoint: ckpt},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"generator":"boundary","count":2} {"count":100000}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip[scenario.Spec](t, data)
		roundTrip[serve.CampaignRequest](t, data)
		roundTrip[lease.LeaseRequest](t, data)
		roundTrip[lease.HeartbeatRequest](t, data)
		roundTrip[lease.AckRequest](t, data)
	})
}

func decodeBody(data []byte, v any) error {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
	return telemetry.DecodeJSON(httptest.NewRecorder(), r, 1<<20, v)
}

func roundTrip[T any](t *testing.T, data []byte) {
	var v T
	if decodeBody(data, &v) != nil {
		return
	}
	enc, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("accepted %T does not re-encode: %v", v, err)
	}
	var back T
	if err := decodeBody(enc, &back); err != nil {
		t.Fatalf("re-encoded %T does not decode: %v\n%s", v, err, enc)
	}
	again, err := json.Marshal(back)
	if err != nil || !bytes.Equal(enc, again) {
		t.Fatalf("%T round trip changed the value (%v):\n%s\n--- then ---\n%s", v, err, enc, again)
	}
}
