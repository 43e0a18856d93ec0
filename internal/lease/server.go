package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"pef/internal/telemetry"
)

// Protocol request bodies. Responses are LeaseResponse, AckResponse, and
// Status; errors render as errorBody with a status code that encodes the
// class: 409 Conflict for fencing rejections (ErrStale), 400 Bad Request
// for malformed or invalid payloads.
type (
	// LeaseRequest asks for the next pending block.
	LeaseRequest struct {
		Worker string `json:"worker"`
	}
	// HeartbeatRequest extends a held lease.
	HeartbeatRequest struct {
		Worker string `json:"worker"`
		Block  int    `json:"block"`
		Token  uint64 `json:"token"`
	}
	// AckRequest delivers a completed block checkpoint (the exact bytes
	// scenario.Checkpoint.Encode produced — the embedded checksum rides
	// along, so transit corruption is caught by the same integrity check
	// that guards on-disk checkpoints).
	AckRequest struct {
		Worker     string          `json:"worker"`
		Block      int             `json:"block"`
		Token      uint64          `json:"token"`
		Checkpoint json.RawMessage `json:"checkpoint"`
	}
	// AckResponse reports whether the ack was an idempotent duplicate.
	AckResponse struct {
		Duplicate bool `json:"duplicate,omitempty"`
	}
	errorBody struct {
		Error string `json:"error"`
	}
)

// maxBody bounds a request body; an /ack body embeds a whole block
// checkpoint.
const maxBody = 64 << 20

// Handler serves the lease protocol for a coordinator on the shared
// telemetry.Mux skeleton:
//
//	POST /lease      LeaseRequest     -> LeaseResponse
//	POST /heartbeat  HeartbeatRequest -> {} | 409
//	POST /ack        AckRequest       -> AckResponse | 409 | 400
//	GET  /status     -> Status
//	GET  /metrics    -> telemetry snapshot (empty when no Registry)
//	/debug/pprof/    runtime profiles
//	GET  /           index of these routes
func Handler(c *Coordinator) http.Handler {
	mux := telemetry.NewMux("pefcoord lease fabric", c.cfg.Registry.Snapshot)
	mux.Route("POST /lease", "LeaseRequest -> LeaseResponse", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := telemetry.DecodeJSON(w, r, maxBody, &req); err != nil {
			writeError(w, fmt.Errorf("lease: %w", err))
			return
		}
		telemetry.WriteJSON(w, http.StatusOK, c.Lease(req.Worker))
	})
	mux.Route("POST /heartbeat", "HeartbeatRequest -> {} | 409", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if err := telemetry.DecodeJSON(w, r, maxBody, &req); err != nil {
			writeError(w, fmt.Errorf("lease: %w", err))
			return
		}
		if err := c.Heartbeat(req.Block, req.Token); err != nil {
			writeError(w, err)
			return
		}
		telemetry.WriteJSON(w, http.StatusOK, struct{}{})
	})
	mux.Route("POST /ack", "AckRequest -> AckResponse | 409 | 400", func(w http.ResponseWriter, r *http.Request) {
		var req AckRequest
		if err := telemetry.DecodeJSON(w, r, maxBody, &req); err != nil {
			writeError(w, fmt.Errorf("lease: %w", err))
			return
		}
		dup, err := c.Ack(req.Block, req.Token, req.Checkpoint)
		if err != nil {
			writeError(w, err)
			return
		}
		telemetry.WriteJSON(w, http.StatusOK, AckResponse{Duplicate: dup})
	})
	mux.Route("GET /status", "lease-fabric state (JSON)", func(w http.ResponseWriter, r *http.Request) {
		telemetry.WriteJSON(w, http.StatusOK, c.Status())
	})
	return mux
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrStale) {
		code = http.StatusConflict
	}
	telemetry.WriteJSON(w, code, errorBody{Error: err.Error()})
}

// Server runs a coordinator's Handler on the shared HTTP skeleton, with
// a background expiry tick so silent leases lapse even when no request
// traffic drives the sweep.
type Server struct {
	*telemetry.Server
	stop chan struct{}
}

// Serve starts the lease endpoint on addr (":0" picks a free port; Addr
// reports the choice), writing the bound address to a non-empty
// addrFile.
func Serve(addr, addrFile string, c *Coordinator) (*Server, error) {
	hs, err := telemetry.ServeHandler(addr, addrFile, Handler(c))
	if err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	s := &Server{Server: hs, stop: make(chan struct{})}
	tick := c.Timeout() / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	go func() {
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.Expire()
			case <-s.stop:
				return
			}
		}
	}()
	return s, nil
}

// Close stops the expiry ticker and shuts the server down. Nil receiver:
// no-op.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	close(s.stop)
	return s.Server.Close()
}
