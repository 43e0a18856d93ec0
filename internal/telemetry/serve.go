package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"pef/internal/durable"
)

// Server is the one HTTP listener of the introspection endpoint (Serve),
// the pefcoord lease fabric and the pefserve daemon, each routed by a
// Mux and speaking WriteJSON / DecodeJSON. The endpoint observes, it
// never participates: nothing in the engine reads from it.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Mux routes one listener: the caller's routes, each added with Route
// so the index lists it, over the base routes every listener serves:
//
//	GET /metrics     snapshot() as indented JSON
//	/debug/pprof/    the standard net/http/pprof handlers
//	GET /            plain-text index: title, then every route
type Mux struct {
	mux    http.ServeMux
	title  string
	routes [][2]string // pattern, description
}

// NewMux returns a Mux holding only the base routes. snapshot is called
// per /metrics request; passing Registry.Snapshot of a nil registry is
// valid and serves an empty snapshot.
func NewMux(title string, snapshot func() Snapshot) *Mux {
	m := &Mux{title: title}
	m.Route("GET /metrics", "telemetry snapshot (JSON)", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, snapshot())
	})
	// The pprof package only auto-registers on http.DefaultServeMux;
	// wire its handlers onto the private mux explicitly.
	m.Route("/debug/pprof/", "runtime profiles", pprof.Index)
	m.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// "/{$}" matches "/" alone: any other path without a route stays a
	// 404, and a known path under the wrong method stays a 405.
	m.mux.HandleFunc("GET /{$}", m.serveIndex)
	return m
}

// Route serves h on pattern (a ServeMux pattern, method included) and
// lists it in the index with its one-line description doc.
func (m *Mux) Route(pattern, doc string, h http.HandlerFunc) {
	m.mux.HandleFunc(pattern, h)
	m.routes = append(m.routes, [2]string{pattern, doc})
}

func (m *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) { m.mux.ServeHTTP(w, r) }

func (m *Mux) serveIndex(w http.ResponseWriter, _ *http.Request) {
	width := 0
	for _, rt := range m.routes {
		width = max(width, len(rt[0]))
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, m.title)
	for _, rt := range m.routes {
		fmt.Fprintf(w, "  %-*s  %s\n", width, rt[0], rt[1])
	}
}

// Serve starts the introspection endpoint on addr (":0" picks a free
// port — use Addr to discover it): the base routes of NewMux over
// snapshot, and nothing else.
func Serve(addr string, snapshot func() Snapshot) (*Server, error) {
	s, err := ServeHandler(addr, "", NewMux("pef telemetry endpoint", snapshot))
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return s, nil
}

// ServeHandler serves h on addr (":0" picks a free port; Addr reports
// the choice) until Shutdown or Close. A non-empty addrFile receives the
// bound address, written durably before ServeHandler returns, for
// scripts racing against ":0".
func ServeHandler(addr, addrFile string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	if addrFile != "" {
		if err := durable.WriteFile(addrFile, []byte(ln.Addr().String())); err != nil {
			ln.Close()
			return nil, err
		}
	}
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
	}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown or Close is expected
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	return s.ln.Addr().String()
}

// Shutdown stops accepting connections and waits, until ctx is done,
// for open requests to finish (http.Server.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

// Close shuts the server down at once. Nil receiver: no-op, so callers
// can `defer srv.Close()` without guarding the disabled case.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// WriteJSON answers with status code and v as indented JSON — the one
// response encoding of every pef listener.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone: nothing to report to
}

// DecodeJSON reads r's body into v as exactly one JSON value: at most
// limit bytes, no field v does not declare, and nothing but whitespace
// after the value — typos and concatenated payloads fail loudly instead
// of silently running defaults. The caller answers the error (400).
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
