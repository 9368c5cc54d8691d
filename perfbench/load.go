package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"crossmatch"
	"crossmatch/internal/serve"
)

// The benchmark's own HTTP load generator. It differs from serve.RunLoad
// in what it measures, not in what it sends:
//
//   - every body is encoded during set-up, so the timed phase spends no
//     client CPU on encoding/json;
//   - a call is timed from when it was due (its scheduled send in the
//     open loop, the moment its connection freed up in the closed
//     loop), so a stall also charges the wait it imposes on later calls;
//   - every decision is a sample; quantiles are exact, not drawn from a
//     reservoir;
//   - a batch holds consecutive same-kind events only. It never
//     coalesces same-kind events across a kind switch: a replay-mode
//     server applies events in recorded order, so a coalesced batch
//     holds events whose predecessors sit in a later batch, and with
//     few connections every connection can end up waiting on a batch
//     that no connection is free to send.

// maxShedRetries bounds how often a shed (429) line is re-sent after
// the server's retry hint before it counts as failed.
const maxShedRetries = 3

// call is one pre-encoded POST.
type call struct {
	path     string // "/v1/requests" or "/v1/workers"
	ctype    string
	body     []byte
	lines    [][]byte // the body's event lines, for re-sending shed ones
	requests bool     // request arrivals: each line is a decision sample
}

// encodeCalls groups consecutive same-kind events into calls of at most
// maxLines events. With maxLines 1 each call is a single JSON object,
// the per-event production path; otherwise an NDJSON batch.
func encodeCalls(events []crossmatch.Event, maxLines int) ([]call, error) {
	var calls []call
	for i := 0; i < len(events); {
		kind := events[i].Kind
		c := call{path: "/v1/workers", ctype: "application/json", requests: kind == crossmatch.RequestArrival}
		if c.requests {
			c.path = "/v1/requests"
		}
		if maxLines > 1 {
			c.ctype = "application/x-ndjson"
		}
		var ends []int
		for ; i < len(events) && events[i].Kind == kind && len(ends) < maxLines; i++ {
			line, err := json.Marshal(serve.EventToWire(events[i]))
			if err != nil {
				return nil, fmt.Errorf("encoding event %d: %w", i, err)
			}
			if len(c.body) > 0 {
				c.body = append(c.body, '\n')
			}
			c.body = append(c.body, line...)
			ends = append(ends, len(c.body))
		}
		for j, end := range ends {
			start := 0
			if j > 0 {
				start = ends[j-1] + 1
			}
			c.lines = append(c.lines, c.body[start:end:end])
		}
		calls = append(calls, c)
	}
	return calls, nil
}

// newClient returns an HTTP client holding at most conns connections
// to the one host it talks to.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// drive sends every call over conns connections and records the
// outcome of every line. With interval 0 it is a closed loop: each
// connection sends its next call as soon as the previous one answers.
// Otherwise it is an open loop: call i is due interval×i after the
// start, whether or not earlier calls have answered.
func drive(client *http.Client, base string, calls []call, conns int, interval time.Duration, rec *recorder) error {
	var next atomic.Int64
	recs := make([]recorder, conns)
	errs := make([]error, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(r *recorder, errp *error) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(calls)) {
					return
				}
				due := time.Now()
				if interval > 0 {
					due = start.Add(time.Duration(i) * interval)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					r.late = append(r.late, ms(time.Since(due)))
				}
				if err := send(client, base, &calls[i], due, r); err != nil {
					*errp = err
					return
				}
			}
		}(&recs[c], &errs[c])
	}
	wg.Wait()
	for c := range recs {
		if errs[c] != nil {
			return errs[c]
		}
		rec.merge(&recs[c])
	}
	return nil
}

// okPrefix starts every line a server or router answers "ok": Status
// is WireDecision's first field.
var okPrefix = []byte(`{"status":"ok"`)

// send posts one call, re-sends its shed lines up to maxShedRetries
// times, and records every line's outcome. A transport failure is
// returned: a replay-mode server cannot pass the gap it leaves, so the
// run cannot go on.
func send(client *http.Client, base string, c *call, due time.Time, r *recorder) error {
	lines, body := c.lines, c.body
	r.attempted += int64(len(lines))
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		resp, err := client.Post(base+c.path, c.ctype, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("POST %s: %w", c.path, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("POST %s: reading reply: %w", c.path, err)
		}
		done := time.Now()
		r.calls++
		r.callBusy += done.Sub(t0)
		outs := bytes.Split(bytes.TrimRight(data, "\n"), []byte{'\n'})
		if len(outs) != len(lines) {
			return fmt.Errorf("POST %s: %d reply lines for %d events (HTTP %d)", c.path, len(outs), len(lines), resp.StatusCode)
		}
		var shed [][]byte
		hint := time.Duration(0)
		for i, out := range outs {
			if bytes.HasPrefix(out, okPrefix) {
				if c.requests {
					r.samples = append(r.samples, ms(done.Sub(due)))
				}
				continue
			}
			var d serve.WireDecision
			if err := json.Unmarshal(out, &d); err == nil && d.Status == serve.StatusShed && attempt < maxShedRetries {
				shed = append(shed, lines[i])
				hint = max(hint, time.Duration(d.RetryAfterMs)*time.Millisecond)
				continue
			}
			r.failed++
			if len(r.failures) < 5 {
				r.failures = append(r.failures, string(out))
			}
		}
		if len(shed) == 0 {
			return nil
		}
		r.retries += int64(len(shed))
		time.Sleep(hint)
		lines, body = shed, bytes.Join(shed, []byte{'\n'})
	}
}
