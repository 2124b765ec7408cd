package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
)

// VarFunc produces one /debug/vars entry; it must be safe to call from
// the serving goroutine and return a JSON-marshalable value.
type VarFunc func() any

// HandlerExtra serves the debug surface of a node:
//
//	/metrics        Prometheus text exposition of reg
//	/debug/vars     JSON snapshot: registry values plus caller vars
//	/debug/pprof/*  runtime profiles (net/http/pprof)
//
// plus caller-mounted endpoints (path → handler), e.g. the flight
// recorder's /debug/flight snapshot. Extra paths appear on the index
// page alongside the built-ins. vars maps names to snapshot functions
// (core stats, config, ...); vars and extra may be nil.
func HandlerExtra(reg *Registry, vars map[string]VarFunc, extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		out := map[string]any{"metrics": reg.Vars()}
		for name, fn := range vars {
			if fn != nil {
				out[name] = fn()
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	endpoints := []string{"/metrics", "/debug/vars", "/debug/pprof/"}
	for path, h := range extra {
		if h != nil {
			mux.Handle(path, h)
			endpoints = append(endpoints, path)
		}
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		sort.Strings(endpoints)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "seqstream debug endpoints:")
		for _, e := range endpoints {
			fmt.Fprintf(w, "  %s\n", e)
		}
	})
	return mux
}

// DebugServer is a running debug HTTP listener.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// Serve binds addr (host:port; port 0 picks a free port) and serves h
// on it in a background goroutine.
func Serve(addr string, h http.Handler) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	s := &DebugServer{ln: ln, srv: &http.Server{Handler: h}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and any in-flight handlers.
func (s *DebugServer) Close() error { return s.srv.Close() }
