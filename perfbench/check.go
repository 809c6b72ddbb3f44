package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/games"
	"repro/internal/serve"
)

// status classifies one response.
type status int

const (
	statusOK status = iota
	// statusShed is a retryable refusal: 429 from admission control, or
	// the 503 a draining server answers. Neither did session work.
	statusShed
	// statusFailed is any other 4xx or 5xx, a transport error, or a 200
	// whose body fails the checks.
	statusFailed
)

// classify maps an HTTP status code onto the benchmark's outcome.
func classify(code int) status {
	switch {
	case code >= 200 && code < 300:
		return statusOK
	case code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable:
		return statusShed
	default:
		return statusFailed
	}
}

// checkDecision verifies one delivered decision: outputs are bits, the
// session is the one asked, and the reported win bit is what the session's
// game says for (x, y, a, b).
func checkDecision(g *games.XORGame, session string, x, y int, d *serve.DecideResponse) error {
	if d.Session != session {
		return fmt.Errorf("decision for session %q, asked %q", d.Session, session)
	}
	if d.A&^1 != 0 || d.B&^1 != 0 {
		return fmt.Errorf("outputs (%d,%d) are not bits", d.A, d.B)
	}
	if want := g.Wins(x, y, d.A, d.B); d.Win != want {
		return fmt.Errorf("round (x=%d,y=%d,a=%d,b=%d) reports win=%v, game %s says %v", x, y, d.A, d.B, d.Win, g.Name, want)
	}
	return nil
}

// requestBody encodes it as a decide or batch request.
func requestBody(session string, it *item, deadline time.Time) []byte {
	var ns int64
	if !deadline.IsZero() {
		ns = deadline.UnixNano()
	}
	var v any = serve.DecideBatchRequest{Session: session, Rounds: it.rounds, DeadlineUnixNS: ns}
	if it.kind == kindDecide {
		v = serve.DecideRequest{Session: session, X: it.rounds[0].X, Y: it.rounds[0].Y, DeadlineUnixNS: ns}
	}
	b, _ := json.Marshal(v) // plain structs of ints and strings always marshal
	return b
}

// result is one request's measurement.
type result struct {
	id       int64
	kind     int
	status   status
	lat      time.Duration // from chargeFrom to the last response byte
	rt       time.Duration // from the send to the last response byte
	lateness time.Duration // send minus due (open loop)
	sentNS   int64         // Unix ns of the send
	doneNS   int64         // Unix ns of the last response byte
	deadline int64         // stamped deadline, Unix ns (0 = none)
	offered  int           // decisions asked for
	decided  int           // decisions delivered
	wins     int
	err      string
}

// phaseStats accumulates one phase's outcomes.
type phaseStats struct {
	Name      string `json:"phase"`
	Sent      int    `json:"sent"`
	Succeeded int    `json:"succeeded"`
	Shed      int    `json:"shed"`
	Late      int    `json:"late"`
	Failed    int    `json:"failed"`
	Offered   int    `json:"offered_decisions"`
	Delivered int    `json:"delivered_decisions"`
	InBudget  int    `json:"in_budget_decisions"`
	Won       int    `json:"won_decisions"`
	// Steal is the share of the host's CPU time the hypervisor withheld
	// during the phase.
	Steal float64 `json:"host_steal_share"`

	budget   time.Duration
	lat      []time.Duration // succeeded requests, charged latency
	lateness []time.Duration
	errs     []string
}

// add folds one request into the phase. Shed and failed requests deliver
// nothing; a delivered decision request whose charged latency exceeds the
// budget is late, and its decisions miss the budget too.
func (ps *phaseStats) add(r *result) {
	ps.Sent++
	ps.Offered += r.offered
	ps.lateness = append(ps.lateness, r.lateness)
	switch r.status {
	case statusShed:
		ps.Shed++
	case statusFailed:
		ps.Failed++
		if len(ps.errs) < 5 {
			ps.errs = append(ps.errs, r.err)
		}
	case statusOK:
		ps.Succeeded++
		ps.lat = append(ps.lat, r.lat)
		ps.Delivered += r.decided
		ps.Won += r.wins
		if r.offered > 0 && ps.budget > 0 && r.lat > ps.budget {
			ps.Late++
			return
		}
		ps.InBudget += r.decided
	}
}

// goodputShare is in-budget decisions over offered decisions.
func (ps *phaseStats) goodputShare() float64 {
	if ps.Offered == 0 {
		return 0
	}
	return float64(ps.InBudget) / float64(ps.Offered)
}
