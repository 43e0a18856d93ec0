package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pef/internal/prng"
	"pef/internal/scenario"
	"pef/internal/serve"
	"pef/internal/serve/cache"
	"pef/internal/telemetry"
)

const (
	// serveWarm is the number of uncached requests setup sends.
	serveWarm = 32
	// serveSends is how often each spec is requested per pass. Two
	// repeats per spec put the median request in the cache-hit latency
	// mode and the 99th percentile in the miss mode; with one repeat
	// (half the requests hits) the median falls between the two modes
	// and swings by 20 % from run to run.
	serveSends = 3
	// serveFirst is how many responses count as the first results of a
	// pass: one response alone would make first_result_s the cost of
	// whichever spec the shuffle put first.
	serveFirst = 256
)

// serveInst drives an in-process pefserve over loopback: closed-loop
// clients POST /run for every spec of a seeded stream in which each spec
// appears serveSends times, against a fresh (cold) cache each pass.
type serveInst struct {
	reg    *scenario.Registry
	specs  []scenario.Spec
	bodies [][]byte // encoded specs
	order  []int    // request i sends specs[order[i]]
	base   string   // http://host:port
	client *http.Client
	hs     *http.Server
	served chan error // Serve's return value
	// cur is the server of the current pass: each pass gets a fresh
	// cache, hence a fresh serve.Server behind the same listener.
	cur atomic.Pointer[serve.Server]
	// canon holds the first response body seen per spec; every later
	// response for that spec, in any pass, must equal it.
	canon    [][]byte
	verified bool
}

// clients is the number of closed-loop clients: one per CPU, at most 2.
func clients() int { return min(2, runtime.NumCPU()) }

func serveSetup(seed uint64) (instance, error) {
	reg := scenario.NewRegistry()
	specs, err := reg.Generate("uniform", scenario.GenConfig{}, mix(seed, 0), sizes.serveSpecs)
	if err != nil {
		return nil, err
	}
	s := &serveInst{reg: reg, specs: specs, canon: make([][]byte, len(specs)), served: make(chan error, 1)}
	for _, sp := range specs {
		b, err := sp.Encode()
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	// Every spec serveSends times, in a seeded shuffle (Fisher–Yates).
	for i := range specs {
		for range serveSends {
			s.order = append(s.order, i)
		}
	}
	src := prng.NewSource(mix(seed, 1))
	for i := len(s.order) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		s.order[i], s.order[j] = s.order[j], s.order[i]
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.cur.Load().ServeHTTP(w, r)
	})}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients()}}
	s.cur.Store(serve.New(serve.Config{Registry: reg}))

	warm, err := reg.Generate("uniform", scenario.GenConfig{}, warmSeed, serveWarm)
	if err != nil {
		s.close()
		return nil, err
	}
	for _, sp := range warm {
		b, err := sp.Encode()
		if err != nil {
			s.close()
			return nil, err
		}
		if _, code, _, err := s.post("/run?cache=off", b); err != nil || code != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("warm-up request: status %d: %v", code, err)
		}
	}
	return s, nil
}

// post sends one request and returns the response body, status and
// cache status.
func (s *serveInst) post(path string, body []byte) ([]byte, int, string, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, resp.Header.Get("X-Pef-Cache"), err
}

// close stops the server and waits for it.
func (s *serveInst) close() error {
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.client.CloseIdleConnections()
	return err
}

// finish checks every response body against a direct scenario.RunWith
// of its spec (unless a traced pass already did), then stops the server.
func (s *serveInst) finish() error {
	var err error
	if !s.verified {
		_, err = s.verify(context.Background(), nil, 0, nil)
	}
	return errors.Join(err, s.close())
}

// verify runs every answered spec directly through scenario.RunWith,
// renders the verdict the way pefserve does, and compares bytes. It
// returns the per-spec engine times; tel, when non-nil, instruments the
// runs.
func (s *serveInst) verify(ctx context.Context, tr *tracer, parent int, tel *scenario.Telemetry) ([]time.Duration, error) {
	var times []time.Duration
	for i, sp := range s.specs {
		if s.canon[i] == nil {
			continue
		}
		t0 := time.Now()
		v, err := scenario.RunWith(ctx, sp, scenario.RunOptions{Registry: s.reg, Telemetry: tel})
		t1 := time.Now()
		if err != nil && v.Err == "" {
			v.Err, v.OK = err.Error(), false
		}
		times = append(times, t1.Sub(t0))
		if tr != nil {
			tr.add("scenario.run", parent, t0, t1)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			return times, err
		}
		if !bytes.Equal(want.Bytes(), s.canon[i]) {
			return times, fmt.Errorf("/run body for %s differs from a direct RunWith", sp.ID())
		}
	}
	s.verified = true
	return times, nil
}

// reply is one request as a client saw it.
type reply struct {
	body       []byte
	code       int
	cache      string
	start, end time.Time
	err        error
}

func (s *serveInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var pr passResult
	tel := scenario.NewTelemetry()
	srv := serve.New(serve.Config{
		Registry:  s.reg,
		Cache:     cache.New(cache.Config{Telemetry: tel.Registry()}),
		Telemetry: tel,
	})
	s.cur.Store(srv)
	root := 0
	if tr != nil {
		root = tr.begin("serve.pass", 0)
		defer tr.end(root)
	}

	replies := make([]reply, len(s.order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(replies) || ctx.Err() != nil {
					return
				}
				r := &replies[i]
				r.start = time.Now()
				r.body, r.code, r.cache, r.err = s.post("/run", s.bodies[s.order[i]])
				r.end = time.Now()
			}
		}()
	}
	wg.Wait()
	pr.wall = time.Since(start)

	var hits, misses, done []time.Duration
	for i, r := range replies {
		d := r.end.Sub(r.start)
		pr.ops++
		pr.lat = append(pr.lat, d)
		done = append(done, r.end.Sub(start))
		if tr != nil {
			tr.add("serve."+r.cache, root, r.start, r.end)
		}
		if r.err != nil || r.code != http.StatusOK {
			pr.failed++
			continue
		}
		// A coalesced request waited for another request's engine run,
		// so it counts with the misses.
		if r.cache == cache.StatusHit {
			hits = append(hits, d)
		} else {
			misses = append(misses, d)
		}
		j := s.order[i]
		if s.canon[j] == nil {
			s.canon[j] = r.body
		} else if !bytes.Equal(s.canon[j], r.body) {
			return pr, fmt.Errorf("/run body for %s differs between requests", s.specs[j].ID())
		}
	}
	pr.first = percentile(done, float64(min(serveFirst, len(done)))/float64(len(done)))
	h := sha256.New()
	for _, b := range s.canon {
		h.Write(b)
	}
	pr.digest = hex.EncodeToString(h.Sum(nil))
	if tr == nil {
		return pr, nil
	}

	snap, err := s.metrics()
	if err != nil {
		return pr, err
	}
	direct := scenario.NewTelemetry()
	engine, err := s.verify(ctx, tr, root, direct)
	if err != nil {
		return pr, err
	}
	var engineTotal time.Duration
	for _, d := range engine {
		engineTotal += d
	}
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	pr.layer = snapshotLayers(snap)
	pr.layer["serve.hit_p50_ms"] = millis(percentile(hits, 0.5))
	pr.layer["serve.hit_p99_ms"] = millis(percentile(hits, 0.99))
	pr.layer["serve.miss_p50_ms"] = millis(percentile(misses, 0.5))
	pr.layer["serve.miss_p99_ms"] = millis(percentile(misses, 0.99))
	pr.layer["serve.cache_hits"] = c("cache.hits") + c("cache.coalesced")
	pr.layer["serve.hit_ratio"] = (c("cache.hits") + c("cache.coalesced")) / float64(pr.ops)
	pr.layer["serve.coalesced"] = c("cache.coalesced")
	pr.layer["serve.rejected"] = c("serve.rejected.busy") + c("serve.rejected.draining") + c("serve.rejected.rateLimited")
	pr.layer["serve.engine_p50_ms"] = millis(percentile(engine, 0.5))
	pr.layer["scenario.engine_s"] = engineTotal.Seconds()
	pr.layer["fsync.scalar_ns_per_round"] = perUnit(engineTotal, direct.Snapshot().Counters["sim.rounds"])
	return pr, nil
}

// metrics reads the pass server's /metrics snapshot.
func (s *serveInst) metrics() (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}
