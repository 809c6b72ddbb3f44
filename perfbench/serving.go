package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/games"
	"repro/internal/serve"
	"repro/internal/xrand"
	"repro/perfbench/internal/servecfg"
)

// servingSpec is one qcoordd workload.
type servingSpec struct {
	sessions  int
	admission bool
	rate      float64       // open-loop arrivals per second
	budget    time.Duration // stamped on every decision request
	// closedRate sizes the closed-loop phase, which takes the second half
	// of --seconds: it sends closedRate × that half requests, about what
	// this workload completes in that time on a 2-core host. The count is
	// fixed so the phase's wall time measures the same work on every
	// commit. Zero means no closed phase: the open phase takes all of
	// --seconds.
	closedRate float64
}

var servingSpecs = map[string]servingSpec{
	// One balancer pair, admission off: the HTTP/JSON path does most of
	// the work.
	"hot-pair": {sessions: 1, rate: 1000, budget: 5 * time.Millisecond, closedRate: 4500},
	// 64 sessions, four on each of the 16 shards, admission at its default
	// flags: every request pays a full engine catch-up. No closed phase:
	// driven back to back, admission flips between shedding every batch64
	// and admitting runs of them, so a closed loop's decision rate swings
	// twofold from run to run.
	"fleet": {sessions: 64, admission: true, rate: 300, budget: 20 * time.Millisecond},
}

// openDuration is the open-loop phase's share of a run of d.
func (sp servingSpec) openDuration(d time.Duration) time.Duration {
	if sp.closedRate == 0 {
		return d
	}
	return d / 2
}

// closedRequests is the closed-loop phase's fixed request count in a run
// of d.
func (sp servingSpec) closedRequests(d time.Duration) int {
	return int(sp.closedRate * (d - sp.openDuration(d)).Seconds())
}

// Run shape: the warm-up kept out of the metrics, the set-up launches and
// the windows a phase is cut into for the steal filter (quietWindows).
const (
	warmupRequests = 500
	setupProbes    = 30 // extra server launches measured for setup_s
	statWindows    = 30 // windows per phase
)

// flags are the workload's server flags; every other flag keeps its
// qcoordd default.
func (sp servingSpec) flags() []string {
	if sp.admission {
		return []string{"-admission"}
	}
	return nil
}

// qcoorddArgs are the flags every qcoordd launch takes: an ephemeral port
// and no metrics artifact on exit.
func qcoorddArgs() []string { return []string{"-addr", "127.0.0.1:0", "-metrics-out", ""} }

// fnv64a is qcoordd's shard hash (internal/serve).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// sessionTemplate is what every benchmark session registers with; the
// harness fills in ID, Seed and Endpoints.
var sessionTemplate = serve.SessionRequest{Game: "colocation"}

// sessionRequests names the workload's sessions so they spread evenly over
// qcoordd's shards, with per-session seeds drawn from the run's seed.
func sessionRequests(sp servingSpec, seed uint64) []serve.SessionRequest {
	const shards = servecfg.Shards
	perShard := (sp.sessions + shards - 1) / shards
	var count [shards]int
	seeds := xrand.Derive(seed, 3)
	var out []serve.SessionRequest
	for i := 0; len(out) < sp.sessions; i++ {
		id := fmt.Sprintf("s%03d", i)
		sh := fnv64a(id) % shards
		if count[sh] == perShard {
			continue
		}
		count[sh]++
		req := sessionTemplate
		req.ID = id
		req.Seed = seeds.Uint64() | 1
		req.Endpoints = []string{id + "-a", id + "-b"}
		out = append(out, req)
	}
	return out
}

func sessionIDs(reqs []serve.SessionRequest) []string {
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		ids[i] = r.ID
	}
	return ids
}

// launch starts a server and provisions the sessions, returning the set-up
// time: from just before exec until the last session is created.
func launch(bin string, args []string, reqs []serve.SessionRequest) (*child, time.Duration, error) {
	c, err := startServer(bin, args)
	if err != nil {
		return nil, 0, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	for _, req := range reqs {
		body, _ := json.Marshal(req) // a SessionRequest always marshals
		resp, err := hc.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			c.kill()
			return nil, 0, fmt.Errorf("create session %s: %w", req.ID, err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			c.kill()
			return nil, 0, fmt.Errorf("create session %s: %d %s", req.ID, resp.StatusCode, buf.String())
		}
	}
	return c, time.Since(c.start), nil
}

// sender owns one connection and issues one request at a time on it.
type sender struct {
	hc    *http.Client
	base  string
	ids   []string
	game  *games.XORGame
	tag   bool // add X-Bench-Req for the traced server
	resp  bytes.Buffer
	d     serve.DecideResponse
	batch serve.DecideBatchResponse
	info  serve.SessionInfo
}

func newSender(base string, ids []string, tag bool) *sender {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &sender{hc: &http.Client{Transport: tr}, base: base, ids: ids, game: games.NewColocationCHSH(), tag: tag}
}

func (s *sender) close() { s.hc.CloseIdleConnections() }

// do sends it and checks the response. due is the scheduled send (zero in a
// closed loop) and free when the sender took the request.
func (s *sender) do(it *item, due, free time.Time, budget time.Duration) result {
	r := result{id: it.id, kind: it.kind, offered: it.decisions()}
	sid := s.ids[it.session]
	sent := time.Now()
	from := sent
	if !due.IsZero() {
		from = chargeFrom(due, free, sent)
		r.lateness = sent.Sub(due)
	}
	var req *http.Request
	if it.kind == kindInfo {
		req, _ = http.NewRequest(http.MethodGet, s.base+"/v1/sessions/"+sid, nil)
	} else {
		var deadline time.Time
		if budget > 0 {
			deadline = from.Add(budget)
			r.deadline = deadline.UnixNano()
		}
		body := requestBody(sid, it, deadline)
		path := "/v1/decide"
		if it.kind == kindBatch {
			path = "/v1/decide/batch"
		}
		req, _ = http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	if s.tag {
		req.Header.Set("X-Bench-Req", strconv.FormatInt(it.id, 10))
	}
	r.sentNS = sent.UnixNano()
	resp, err := s.hc.Do(req)
	if err != nil {
		r.status, r.err = statusFailed, err.Error()
		return r
	}
	s.resp.Reset()
	_, err = s.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	done := time.Now()
	r.lat, r.rt, r.doneNS = done.Sub(from), done.Sub(sent), done.UnixNano()
	if err != nil {
		r.status, r.err = statusFailed, err.Error()
		return r
	}
	r.status = classify(resp.StatusCode)
	if r.status != statusOK {
		if r.status == statusFailed {
			r.err = fmt.Sprintf("%s: %d %s", kindNames[it.kind], resp.StatusCode, strings.TrimSpace(s.resp.String()))
		}
		return r
	}
	if err := s.verify(it, sid, &r); err != nil {
		r.status, r.err = statusFailed, fmt.Sprintf("%s: %v", kindNames[it.kind], err)
	}
	return r
}

// verify checks a 200 body and counts its decisions and wins.
func (s *sender) verify(it *item, sid string, r *result) error {
	switch it.kind {
	case kindInfo:
		if err := json.Unmarshal(s.resp.Bytes(), &s.info); err != nil {
			return err
		}
		if s.info.ID != sid || s.info.Game != s.game.Name {
			return fmt.Errorf("info for %s/%s, asked %s/%s", s.info.ID, s.info.Game, sid, s.game.Name)
		}
		return nil
	case kindDecide:
		if err := json.Unmarshal(s.resp.Bytes(), &s.d); err != nil {
			return err
		}
		rd := it.rounds[0]
		if err := checkDecision(s.game, sid, rd.X, rd.Y, &s.d); err != nil {
			return err
		}
		r.decided = 1
		if s.d.Win {
			r.wins = 1
		}
		return nil
	}
	if err := json.Unmarshal(s.resp.Bytes(), &s.batch); err != nil {
		return err
	}
	if len(s.batch.Results) != len(it.rounds) {
		return fmt.Errorf("%d results for %d rounds", len(s.batch.Results), len(it.rounds))
	}
	for i, rd := range it.rounds {
		d := &s.batch.Results[i]
		if err := checkDecision(s.game, sid, rd.X, rd.Y, d); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		if d.Win {
			r.wins++
		}
	}
	r.decided = len(it.rounds)
	return nil
}

// runPhase sends items over the senders. Every sender takes the next
// unclaimed item and sends it; with open set, a sender that is early sleeps
// until the item is due first (open loop), otherwise it sends at once
// (closed loop). It returns the results in item order and the phase start.
func runPhase(senders []*sender, items []item, budget time.Duration, open bool) ([]result, time.Time) {
	results := make([]result, len(items))
	start := time.Now()
	if open {
		start = start.Add(10 * time.Millisecond) // let every sender reach its first sleep
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, s := range senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := &items[i]
				if !open {
					results[i] = s.do(it, time.Time{}, time.Time{}, budget)
					continue
				}
				due := start.Add(it.due)
				free := time.Now()
				if free.Before(due) {
					time.Sleep(due.Sub(free))
				}
				results[i] = s.do(it, due, free, budget)
			}
		}(s)
	}
	wg.Wait()
	return results, start
}

// closedItems is a closed-loop phase's fixed request sequence.
func closedItems(seed uint64, n, sessions int) []item {
	src := newItemSource(seed, 4, sessions, 1<<40)
	out := make([]item, n)
	for i := range out {
		out[i] = src.draw()
	}
	return out
}

// tally folds results into a phase.
func tally(name string, budget time.Duration, results []result) *phaseStats {
	ps := &phaseStats{Name: name, budget: budget}
	for i := range results {
		ps.add(&results[i])
	}
	sortDurations(ps.lat)
	sortDurations(ps.lateness)
	return ps
}

// scrape reads the server's /metrics exposition.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err == nil {
			m[k] = f
		}
	}
	return m, sc.Err()
}

// sessionInfo reads GET /v1/sessions/{id}.
func sessionInfo(base, id string) (serve.SessionInfo, error) {
	var info serve.SessionInfo
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("session %s: status %d", id, resp.StatusCode)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}
