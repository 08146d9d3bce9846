package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"slices"

	"repro/internal/service"
)

// server is the service under test behind a loopback listener.
type server struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

// startServer builds the service and serves its handler on an
// ephemeral 127.0.0.1 port.
func startServer(cfg service.Config) (*server, error) {
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, err
		}
	}
	svc, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("service.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{svc: svc, srv: &http.Server{Handler: svc.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close stops the listener, waits for the serve loop, and closes the
// service (which takes its final checkpoints when persistence is on).
func (s *server) close() error {
	err := s.srv.Close()
	<-s.done
	return errors.Join(err, s.svc.Close())
}

// client owns one keep-alive connection to the server.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer
	ans  answer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// answer is the union of the JSON response bodies the benchmark reads.
type answer struct {
	Estimates []float64   `json:"estimates"`
	Items     []heavyItem `json:"items"`
	Results   []minedSet  `json:"results"`
	Accepted  int         `json:"accepted"`
	Report    []shardSeen `json:"report"`
}

type heavyItem struct {
	Item int `json:"item"`
}

type minedSet struct {
	Attrs []int `json:"attrs"`
}

type shardSeen struct {
	Seen int64 `json:"seen"`
}

// send sends one request and reads the whole body into c.buf. Anything
// but a 200 answered by every shard is an error.
func (c *client) send(ctx context.Context, method, path string, body []byte) (http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	if got := resp.Header.Get("X-Shards-Answered"); got != fmt.Sprintf("%d/%d", numShards, numShards) {
		return nil, fmt.Errorf("%s %s: degraded response: X-Shards-Answered %q", method, path, got)
	}
	return resp.Header, nil
}

// do is send followed by decoding the JSON body into c.ans.
func (c *client) do(ctx context.Context, method, path string, body []byte) error {
	if _, err := c.send(ctx, method, path, body); err != nil {
		return err
	}
	c.ans = answer{Estimates: c.ans.Estimates[:0]}
	if err := json.Unmarshal(c.buf.Bytes(), &c.ans); err != nil {
		return fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return nil
}

// checker holds what answers are checked against.
type checker struct {
	w     workload
	plant []int
}

// check verifies c.ans for req: estimates within the Lemma 9 ε of the
// sample that answered them, the planted itemset mined, and the planted
// items among the heavy hitters.
func (ck checker) check(req *request, a *answer) error {
	switch req.kind {
	case kindEstimate, kindWindowEstimate:
		if len(a.Estimates) != len(req.sets) {
			return fmt.Errorf("estimate: %d answers for %d itemsets", len(a.Estimates), len(req.sets))
		}
		s := ck.w.sampleRows(req.kind == kindWindowEstimate)
		for i, est := range a.Estimates {
			k := req.sets[i].Len()
			if eps := lemma9Eps(s, numAttrs, k, delta); math.Abs(est-req.truth[i]) > eps {
				return fmt.Errorf("estimate of %v = %.5f, exact %.5f: off by more than ε = %.5f (s = %d)",
					req.sets[i].Attrs(), est, req.truth[i], eps, s)
			}
		}
	case kindHeavy, kindWindowHeavy:
		for _, p := range ck.plant {
			if !slices.Contains(a.Items, heavyItem{Item: p}) {
				return fmt.Errorf("%s: planted item %d missing from %d heavy hitters", kindNames[req.kind], p, len(a.Items))
			}
		}
	case kindMine:
		for _, r := range a.Results {
			if slices.Equal(r.Attrs, ck.plant) {
				return nil
			}
		}
		return fmt.Errorf("mine: planted itemset %v missing from %d results", ck.plant, len(a.Results))
	}
	return nil
}
