// Serveclient: a client of the pefserve campaign service, showing the
// shared retry discipline (internal/retry — the same bounded
// exponential backoff with deterministic jitter the lease workers use)
// and the content-addressed verdict cache doing its job: the same spec
// submitted twice costs one simulation, and the X-Pef-Cache header
// says so.
//
//	# against a self-hosted in-process server
//	go run ./examples/serveclient
//
//	# against a running daemon
//	pefserve -listen 127.0.0.1:7080 &
//	go run ./examples/serveclient http://127.0.0.1:7080
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"pef/internal/retry"
	"pef/internal/scenario"
	"pef/internal/serve"
	"pef/internal/serve/cache"
	"pef/internal/telemetry"
)

func main() {
	ctx := context.Background()

	base := ""
	if len(os.Args) > 1 {
		base = strings.TrimRight(os.Args[1], "/")
	} else {
		// No server given: host one in-process, exactly as pefserve would.
		tel := scenario.NewTelemetry()
		srv := serve.New(serve.Config{
			Cache:     cache.New(cache.Config{Telemetry: tel.Registry()}),
			Telemetry: tel,
		})
		hs, err := telemetry.ServeHandler("127.0.0.1:0", "", srv)
		if err != nil {
			log.Fatal(err)
		}
		defer hs.Close()
		base = "http://" + hs.Addr()
		fmt.Printf("self-hosted pefserve at %s\n\n", base)
	}

	// Wait for the server with the shared retry policy: bounded
	// exponential backoff, deterministically jittered by a seed derived
	// from the client identity — a fleet of these clients fans out
	// instead of thundering in lockstep.
	pol := retry.Policy{MaxRetries: 6, Base: 50 * time.Millisecond, Seed: retry.SeedString("serveclient")}
	var stream uint64
	stream++
	err := retry.Do(ctx, pol, stream, func(int) (bool, error) {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return true, err // transport error: the server may still be binding
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return true, fmt.Errorf("healthz: %s", resp.Status)
		}
		return false, nil
	})
	if err != nil {
		log.Fatalf("server never became healthy: %v", err)
	}
	fmt.Println("=== /healthz: server is up ===")

	// The same spec twice: one simulation, then a cache hit.
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
	body, err := json.Marshal(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== /run: the same spec twice ===")
	for i := 0; i < 2; i++ {
		v, status, err := postRun(ctx, pol, base, body)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s %s → outcome=%s ok=%t\n", status, v.ID, v.Outcome, v.OK)
	}

	// A small campaign, streamed as the exact pefscenarios report bytes.
	fmt.Println("\n=== /campaign: boundary, 50 scenarios ===")
	resp, err := http.Post(base+"/campaign", "application/json",
		strings.NewReader(`{"generator":"boundary","gen":{"maxRing":8},"count":50,"seeds":[1]}`))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	report, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(string(report))
}

// postRun submits one spec under the retry policy — transient transport
// failures and 5xx are retried with jittered backoff, client errors are
// final — and returns the verdict plus the X-Pef-Cache status.
func postRun(ctx context.Context, pol retry.Policy, base string, body []byte) (scenario.Verdict, string, error) {
	var (
		v      scenario.Verdict
		status string
		stream uint64 = 100
	)
	stream++
	err := retry.Do(ctx, pol, stream, func(int) (bool, error) {
		resp, err := http.Post(base+"/run", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return true, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return true, err
		}
		if resp.StatusCode >= 500 {
			return true, fmt.Errorf("server error %s: %s", resp.Status, data)
		}
		if resp.StatusCode >= 400 {
			return false, fmt.Errorf("request refused %s: %s", resp.Status, data)
		}
		status = resp.Header.Get("X-Pef-Cache")
		return false, json.Unmarshal(data, &v)
	})
	return v, status, err
}
