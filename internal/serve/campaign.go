package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"pef/internal/scenario"
	"pef/internal/serve/cache"
	"pef/internal/telemetry"
)

// CampaignRequest is the POST /campaign body: the client-visible half of
// scenario.CampaignConfig (generator identity and output shape), with
// the pool shape deliberately server-owned.
type CampaignRequest struct {
	// Generator names the sampler; empty means "uniform".
	Generator string `json:"generator,omitempty"`
	// Gen bounds the sampled parameter space.
	Gen scenario.GenConfig `json:"gen,omitempty"`
	// Count is the number of scenarios per seed (values < 1 mean 1).
	Count int `json:"count,omitempty"`
	// Seeds lists the generator seeds; empty means {1}.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Verdicts streams one JSON line per verdict, flushed per verdict,
	// ahead of the final aggregate.
	Verdicts bool `json:"verdicts,omitempty"`
	// JSON renders the final aggregate as the versioned campaign JSON
	// document instead of the human-readable report.
	JSON bool `json:"json,omitempty"`
	// Cache set to "off" bypasses the verdict cache for this campaign;
	// empty (or "on") uses it when the server has one.
	Cache string `json:"cache,omitempty"`
}

// handleCampaign streams a campaign: optional per-verdict JSON lines
// (flushed each) followed by the final aggregate — whose bytes, in
// report or JSON mode without verdict lines, are exactly the
// single-process pefscenarios output for the same config. Configuration
// errors surface as a 400 before any byte streams; after streaming
// starts, failures arrive as a loud "pefserve: ERROR" trailer line.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	s.campaigns.Inc()
	var req CampaignRequest
	if err := telemetry.DecodeJSON(w, r, maxBody, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ccfg := scenario.CampaignConfig{
		Registry:        s.reg,
		Generator:       req.Generator,
		Gen:             req.Gen,
		Count:           req.Count,
		Seeds:           req.Seeds,
		Workers:         s.cfg.Workers,
		LaneWidth:       s.cfg.LaneWidth,
		DisableLockstep: s.cfg.DisableLockstep,
		Telemetry:       s.tel,
	}
	var cc *campaignCache
	if s.store != nil && req.Cache != "off" {
		cc = &campaignCache{store: s.store}
		ccfg.Cache = cc
	}
	agg, err := scenario.NewAggregate(ccfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Headers are not sent until the first body write, so a
	// config-failure yield (the stream's first and only pair, before any
	// verdict) can still 400 below.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w) // no indent: one verdict per line
	streamed := 0
	for v, serr := range scenario.StreamCampaign(r.Context(), ccfg) {
		if serr != nil && v.ID == "" {
			writeError(w, http.StatusBadRequest, serr.Error())
			return
		}
		if serr != nil {
			// Context cancelled: the client hung up (the server's drain
			// never cancels the stream context). Nobody is listening.
			s.logf("serve: campaign abandoned after %d verdicts: %v", streamed, serr)
			return
		}
		if err := cc.firstError(); err != nil {
			s.interruptedCampaigns.Inc()
			s.logf("serve: campaign aborted: %v", err)
			fmt.Fprintf(w, "pefserve: ERROR: %v; campaign aborted — resubmit with \"cache\":\"off\" to run it uncached\n", err)
			return
		}
		agg.Add(v)
		streamed++
		if req.Verdicts {
			enc.Encode(v) //nolint:errcheck // a lost client surfaces as stream cancellation
			s.verdictsStreamed.Inc()
			if flusher != nil {
				flusher.Flush()
			}
		}
		select {
		case <-s.abortCh:
			s.interruptedCampaigns.Inc()
			s.logf("serve: campaign interrupted by drain after %d verdicts", streamed)
			fmt.Fprintf(w, "pefserve: ERROR: campaign interrupted by server drain after %d scenarios; no report\n", streamed)
			return
		default:
		}
	}
	s.verdictsReturned.Add(int64(streamed))
	if req.JSON {
		agg.WriteJSON(w) //nolint:errcheck // client gone: nothing to report to
		return
	}
	agg.WriteReport(w) //nolint:errcheck // client gone: nothing to report to
}

// campaignCache adapts the content-addressed store to the campaign's
// VerdictCache hook. Unfingerprintable specs are not silently bypassed:
// the first such error is captured and the campaign handler aborts the
// stream loudly — caching was requested, so failing to cache is a
// request failure, not a quiet degradation.
type campaignCache struct {
	store *cache.Cache

	mu  sync.Mutex
	err error
}

func (a *campaignCache) Lookup(s scenario.Spec) (scenario.Verdict, bool) {
	key, err := cache.Key(s)
	if err != nil {
		a.record(err)
		return scenario.Verdict{}, false
	}
	return a.store.Get(key)
}

func (a *campaignCache) Store(s scenario.Spec, v scenario.Verdict) {
	key, err := cache.Key(s)
	if err != nil {
		a.record(err)
		return
	}
	a.store.Put(key, v)
}

func (a *campaignCache) record(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	a.mu.Unlock()
}

// firstError returns the first keying failure; nil receiver means "no
// cache attached".
func (a *campaignCache) firstError() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}
