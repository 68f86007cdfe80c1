package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
)

// swapHandler lets a worker be closed and reopened behind the same URL, so
// the router keeps its worker list across the restart.
type swapHandler struct{ h atomic.Value }

func (s *swapHandler) set(h http.Handler) { s.h.Store(h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// listener is one loopback HTTP server and the goroutine serving it.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

// close stops accepting, lets in-flight requests finish, and waits for
// the serving goroutine.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if l.hs.Shutdown(ctx) != nil {
		l.hs.Close()
	}
	<-l.done
}

// worker is one pmemd instance served on a loopback listener.
type worker struct {
	opts server.Options
	srv  *server.Server
	h    swapHandler
	ln   *listener
}

// stack is the system under test: one pmemd, or two pmemd workers behind a
// fleet router. The load generator talks to front.
type stack struct {
	workers []*worker
	router  *fleet.Router
	rln     *listener
	front   string
	once    sync.Once
}

// stackConfig describes a stack: one pmemd, or two pmemd workers behind an
// affinity router. Every worker gets opts plus its own disk directory.
type stackConfig struct {
	opts  server.Options
	fleet bool
}

// stacks are the serving child's stacks by name. The fleet's LRU holds
// about 5% of fleet-disk's keys, so reads after the restart mostly come
// from disk.
var stacks = map[string]stackConfig{
	"single": {opts: server.Options{Workers: 2, QueueDepth: 64, CacheBytes: 64 << 20, DiskCacheMemtableBytes: 1 << 20}},
	"fleet":  {fleet: true, opts: server.Options{Workers: 1, CacheBytes: 256 << 10, DiskCacheMemtableBytes: 1 << 20}},
}

// newStack builds and serves a stack whose disk tiers live under dir and
// whose loggers write slog text to log.
func newStack(cfg stackConfig, dir string, log *slog.Logger) (*stack, error) {
	st := &stack{}
	n := 1
	if cfg.fleet {
		n = 2
	}
	var specs []fleet.Worker
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		opts := cfg.opts
		opts.DiskCacheDir = filepath.Join(dir, name)
		opts.Logger = log.With("component", "pmemd", "worker", name)
		srv, err := server.New(opts)
		if err != nil {
			st.close()
			return nil, err
		}
		w := &worker{opts: opts, srv: srv}
		w.h.set(srv.Handler())
		if w.ln, err = listen(&w.h); err != nil {
			srv.Close()
			st.close()
			return nil, err
		}
		st.workers = append(st.workers, w)
		specs = append(specs, fleet.Worker{Name: name, URL: w.ln.url})
	}
	st.front = st.workers[0].ln.url
	if cfg.fleet {
		rt, err := fleet.New(fleet.Options{Workers: specs, Policy: fleet.PolicyAffinity, Logger: log.With("component", "pmemfleet")})
		if err != nil {
			st.close()
			return nil, err
		}
		st.router = rt
		if st.rln, err = listen(rt.Handler()); err != nil {
			st.close()
			return nil, err
		}
		st.front = st.rln.url
	}
	return st, nil
}

// restart closes every worker (flushing its disk tier) and reopens it on
// the same directory behind the same URL: the LRU starts cold, the disk
// tier warm.
func (st *stack) restart() error {
	for _, w := range st.workers {
		w.srv.Close()
		srv, err := server.New(w.opts)
		if err != nil {
			return fmt.Errorf("reopen worker: %w", err)
		}
		w.srv = srv
		w.h.set(srv.Handler())
	}
	return nil
}

// close stops the listeners and closes the workers; it may be called more
// than once.
func (st *stack) close() {
	st.once.Do(func() {
		if st.rln != nil {
			st.rln.close()
		}
		for _, w := range st.workers {
			if w.ln != nil {
				w.ln.close()
			}
			w.srv.Close()
		}
	})
}

// client sends run requests and checks every answer: status 200, a body
// that hashes to its X-Pmemd-Content-SHA256, and the same bytes every time
// the same request identity is asked, whatever its spelling.
type client struct {
	hc  *http.Client
	url string

	mu   sync.Mutex
	seen map[string][32]byte
}

func newClient(front string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, url: front + "/v1/run", seen: map[string][32]byte{}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// run posts one request. ident names what the body means; a respelled body
// carries its original's ident. It returns the cache tier and the body.
func (c *client) run(body []byte, ident, reqID string) (string, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", nil, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		// Refusals (429, 503) fail like any other error status.
		return "", nil, fmt.Errorf("%s: status %d: %s", ident, resp.StatusCode, bytes.TrimSpace(out))
	}
	sum := sha256.Sum256(out)
	if got := resp.Header.Get(server.ContentSHAHeader); got != hex.EncodeToString(sum[:]) {
		return "", nil, fmt.Errorf("%s: body does not match %s %q", ident, server.ContentSHAHeader, got)
	}
	c.mu.Lock()
	prev, ok := c.seen[ident]
	if !ok {
		c.seen[ident] = sum
	}
	c.mu.Unlock()
	if ok && prev != sum {
		return "", nil, fmt.Errorf("%s: bytes differ from an earlier answer to the same request", ident)
	}
	return resp.Header.Get("X-Pmemd-Cache"), out, nil
}
