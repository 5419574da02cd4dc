package main

// Remote mode: with -serve-addr, convsched becomes a client of a running
// schedd instead of scheduling locally. Each input unit is POSTed to the
// service and the response printed in the batch-mode format, so local and
// remote runs compare line-for-line. 429 sheds are retried honoring
// Retry-After — the client side of the daemon's admission control — and
// transient 503s (a draining shard, a below-quorum gateway mid-churn) are
// retried with the same full-jitter backoff, so a membership change in the
// cluster looks like added latency to a batch run, not a failure.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"
)

// remoteSchedule mirrors the fields of the server's 200 body that the batch
// report uses.
type remoteSchedule struct {
	Served    string  `json:"served"`
	Cycles    int     `json:"cycles"`
	Comms     int     `json:"comms"`
	CacheHit  bool    `json:"cacheHit"`
	Shared    bool    `json:"shared"`
	Degraded  bool    `json:"degraded"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// remoteError mirrors the server's structured error body.
type remoteError struct {
	Error struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
		Rung    string `json:"rung"`
	} `json:"error"`
}

// runRemote posts every input unit to the schedd at addr. Failures are
// per-unit, like local batch mode.
func runRemote(o options, paths []string) error {
	if o.chaos != "" {
		return fmt.Errorf("-chaos is server-side in remote mode; start schedd -chaos instead")
	}
	if o.show != "stats" {
		return fmt.Errorf("-show %s is a local feature; remote mode prints stats", o.show)
	}
	base := o.serveAddr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	q := url.Values{}
	q.Set("machine", o.machine)
	q.Set("scheduler", o.scheduler)
	q.Set("seed", strconv.FormatInt(o.seed, 10))
	q.Set("verify", strconv.FormatBool(o.verify))
	q.Set("fallback", strconv.FormatBool(o.fallback))
	if o.timeout > 0 {
		q.Set("timeout", o.timeout.String())
	}
	target := base + "/schedule?" + q.Encode()

	type unit struct {
		id   string
		body []byte
	}
	var units []unit
	if len(paths) == 0 {
		body, err := io.ReadAll(os.Stdin)
		if err != nil {
			return err
		}
		units = []unit{{id: "stdin", body: body}}
	} else {
		for _, p := range paths {
			body, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			units = append(units, unit{id: p, body: body})
		}
	}

	failed := 0
	for _, u := range units {
		res, err := postUnit(target, o.tenant, u.body)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "convsched: %s: %v\n", u.id, err)
			continue
		}
		tag := ""
		switch {
		case res.CacheHit:
			tag = "  [cached]"
		case res.Shared:
			tag = "  [shared]"
		case res.Degraded:
			tag = "  [degraded]"
		}
		fmt.Printf("%-32s %6d cycles %5d comms  served by %-12s %8s%s\n",
			u.id, res.Cycles, res.Comms, res.Served,
			(time.Duration(res.ElapsedMs * float64(time.Millisecond))).Round(time.Millisecond), tag)
	}
	fmt.Printf("remote: %d units via %s\n", len(units), base)
	if failed > 0 {
		return fmt.Errorf("%d of %d units failed", failed, len(units))
	}
	return nil
}

// postUnit sends one unit, retrying 429 sheds with the server's Retry-After
// hint and connection errors with the same jittered backoff, each a bounded
// number of times. Connection errors are retryable because they are exactly
// what a daemon mid-(warm-)restart or a gateway shuffling shards looks like:
// failing the whole batch on the first dial error turns a one-second blip
// into a rerun.
func postUnit(target, tenant string, body []byte) (*remoteSchedule, error) {
	const maxAttempts = 5
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "text/plain")
		if tenant != "" {
			req.Header.Set("X-Schedd-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if attempt < maxAttempts {
				// No Retry-After to honor on a failed dial; the empty header
				// falls back to the linear-backoff base, jittered like a 429.
				time.Sleep(retryAfter("", attempt))
				continue
			}
			return nil, fmt.Errorf("after %d attempts: %w", attempt, err)
		}
		rb, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			var rs remoteSchedule
			if err := json.Unmarshal(rb, &rs); err != nil {
				return nil, fmt.Errorf("bad schedule body: %w", err)
			}
			return &rs, nil
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < maxAttempts {
			time.Sleep(retryAfter(resp.Header.Get("Retry-After"), attempt))
			continue
		}
		var re remoteError
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < maxAttempts {
			// A 503 is retryable exactly when its structured kind says the
			// condition is transient: a draining shard hands its keyspace to a
			// peer within a probe interval, a below-quorum gateway recovers as
			// probes notice restarted shards, and a replaying store finishes.
			// Permanent 503s (no structured kind, or an unknown one) fail fast.
			if json.Unmarshal(rb, &re) == nil && retryable503(re.Error.Kind) {
				time.Sleep(retryAfter(resp.Header.Get("Retry-After"), attempt))
				re = remoteError{}
				continue
			}
		}
		if json.Unmarshal(rb, &re) == nil && re.Error.Kind != "" {
			if re.Error.Rung != "" {
				return nil, fmt.Errorf("%s (%s) at rung %s", re.Error.Message, re.Error.Kind, re.Error.Rung)
			}
			return nil, fmt.Errorf("%s (%s)", re.Error.Message, re.Error.Kind)
		}
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, rb)
	}
}

// retryable503 reports whether a structured 503 kind names a transient
// condition worth waiting out — membership churn (draining, degraded,
// unavailable) or a store replay (starting) — rather than a permanent refusal.
func retryable503(kind string) bool {
	switch kind {
	case "draining", "degraded", "unavailable", "starting":
		return true
	}
	return false
}

// retryAfter turns a Retry-After header (integer seconds) into a wait, with
// a linear-backoff fallback when the header is absent or unparseable. The
// wait is jittered to [base/2, base]: a server shedding under overload
// hands every concurrent client the same integer hint, and honoring it
// verbatim re-saturates admission in lockstep on the next tick — the
// classic synchronized retry storm.
func retryAfter(header string, attempt int) time.Duration {
	base := time.Duration(attempt) * 50 * time.Millisecond
	if s, err := strconv.Atoi(header); err == nil && s >= 0 {
		base = time.Duration(s) * time.Second
		if base == 0 {
			base = 50 * time.Millisecond
		}
		if base > 2*time.Second {
			base = 2 * time.Second
		}
	}
	// Full-jitter over the upper half: wait = base/2 + uniform[0, base/2].
	half := base / 2
	return half + rand.N(half+1)
}
