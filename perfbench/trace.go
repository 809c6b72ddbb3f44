package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/entangle"
	"repro/internal/games"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/serve"
	"repro/internal/xrand"
	"repro/perfbench/internal/servecfg"
)

// shedReasons are admission's shed outcomes, as its metrics label them.
var shedReasons = []admission.Outcome{admission.ShedDeadline, admission.ShedBacklog, admission.ShedLimiter, admission.ShedPriority, admission.ShedExpired}

// experimentIDs are the experiments cmd/repro runs.
var experimentIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E19", "E20"}

// layerMetrics lists every per-layer metric in report order. A traced run
// reports all of them; a layer the workload does not reach reads 0.
func layerMetrics() [][2]string {
	l := [][2]string{
		{"gen.lateness_p50_ms", "ms"},
		{"gen.lateness_p99_ms", "ms"},
		{"transport.us_per_req", "us"},
	}
	for _, k := range kindNames {
		l = append(l, [2]string{"serve.http_us." + k, "us"})
	}
	for _, stage := range []string{"core", "codec"} {
		for _, k := range kindNames[:kindInfo] {
			l = append(l, [2]string{"serve." + stage + "_us." + k, "us"})
		}
	}
	l = append(l,
		[2]string{"netsim.catchup_us_per_req", "us"},
		[2]string{"entangle.pairs_per_decision", "count"},
		[2]string{"entangle.pair_use_ratio", "share"},
		[2]string{"core.round_ns", "ns"},
		[2]string{"core.quantum_share", "share"},
		[2]string{"admission.admit_ns", "ns"},
		[2]string{"admission.service_estimate_us", "us"},
	)
	for _, r := range shedReasons {
		l = append(l, [2]string{"admission.shed_share." + r.String(), "share"})
	}
	l = append(l, [2]string{"trace.overhead_share", "share"})
	for _, id := range experimentIDs {
		l = append(l, [2]string{"experiments." + id + "_s", "s"})
	}
	return append(l, [2]string{"games.solvecache_hit_ratio", "share"}, [2]string{"parallel.utilization", "share"})
}

// ledger holds one traced run's per-layer metrics.
type ledger struct{ metrics map[string]metric }

func newLedger() *ledger {
	l := &ledger{metrics: map[string]metric{}}
	for _, m := range layerMetrics() {
		l.metrics[m[0]] = metric{0, m[1]}
	}
	return l
}

// set records a value; names outside layerMetrics are not reported.
func (l *ledger) set(name string, v float64) {
	if m, ok := l.metrics[name]; ok {
		m.Value = v
		l.metrics[name] = m
	}
}

// span is the traced server's record of one request (see qtrace).
type span struct {
	ID      int64 `json:"id"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// traceServing is the per-layer run of a qcoordd workload. It runs the
// open-loop phase twice on the same schedule: on qcoordd untraced, then on
// qtrace with client and server spans. The spans give the HTTP and
// transport split; replaying the recorded arrivals into the in-process
// layers gives the stages the server cannot expose.
func traceServing(e *env, name string) (*report, map[string]any, error) {
	sp := servingSpecs[name]
	reqs := sessionRequests(sp, e.seed)
	ids := sessionIDs(reqs)
	items := openSchedule(e.seed, sp.rate, sp.openDuration(e.seconds), len(ids))

	meter := startStealMeter()
	defer meter.stop()
	plainRun, err := tracePhase(filepath.Join(e.bin, "qcoordd"), append(qcoorddArgs(), sp.flags()...), reqs, items, e.seed, sp, false)
	if err != nil {
		return nil, nil, err
	}
	spansPath := filepath.Join(e.scratch, "spans.json")
	qtraceArgs := append([]string{"-addr", "127.0.0.1:0", "-spans-out", spansPath}, sp.flags()...)
	tracedRun, err := tracePhase(filepath.Join(e.bin, "qtrace"), qtraceArgs, reqs, items, e.seed, sp, true)
	if err != nil {
		return nil, nil, err
	}
	meter.stop()
	res, live := tracedRun.res, &tracedRun.live
	phases := []*phaseStats{
		tally("warmup-untraced", sp.budget, plainRun.warm),
		tally("open-untraced", sp.budget, plainRun.res),
		tally("warmup-traced", sp.budget, tracedRun.warm),
		tally("open-traced", sp.budget, res),
	}
	plain, traced := phases[1], phases[3]
	plain.Steal = meter.share(plainRun.from, plainRun.to)
	traced.Steal = meter.share(tracedRun.from, tracedRun.to)
	emitPhases(phases...)

	b, err := os.ReadFile(spansPath)
	if err != nil {
		return nil, nil, err
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		return nil, nil, fmt.Errorf("spans: %w", err)
	}
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}

	l := newLedger()
	if v, ok := percentile(traced.lateness, 0.50); ok {
		l.set("gen.lateness_p50_ms", ms(v))
	}
	if v, ok := percentile(traced.lateness, 0.99); ok {
		l.set("gen.lateness_p99_ms", ms(v))
	}
	p50plain, _ := percentile(plain.lat, 0.50)
	p50traced, _ := percentile(traced.lat, 0.50)
	l.set("trace.overhead_share", float64(p50traced)/float64(p50plain)-1)

	// HTTP and transport split, from the joined client and server spans.
	var rt, httpT, transport [numKinds][]float64
	var allTransport []float64
	var arrivals []arrival
	for i := range items {
		r := &res[i]
		s, ok := byID[r.id]
		if !ok || r.status == statusFailed {
			continue
		}
		if r.status == statusShed {
			arrivals = append(arrivals, arrival{it: &items[i], res: r, at: s.StartNS, service: time.Duration(s.EndNS - s.StartNS)})
			continue
		}
		h := time.Duration(s.EndNS - s.StartNS)
		k := r.kind
		rt[k] = append(rt[k], us(r.rt))
		httpT[k] = append(httpT[k], us(h))
		transport[k] = append(transport[k], us(r.rt-h))
		allTransport = append(allTransport, us(r.rt-h))
		arrivals = append(arrivals, arrival{it: &items[i], res: r, at: s.StartNS, service: h})
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].at < arrivals[j].at })
	l.set("transport.us_per_req", median(allTransport))
	for k := range kindNames {
		l.set("serve.http_us."+kindNames[k], median(httpT[k]))
	}

	coreUS, err := replayServe(sp, reqs, arrivals)
	if err != nil {
		return nil, nil, err
	}
	split := map[string]any{}
	for k := 0; k < numKinds; k++ {
		if len(rt[k]) == 0 {
			continue // none delivered (fleet sheds every batch)
		}
		row := map[string]float64{
			"client_rt_us":    median(rt[k]),
			"transport_us":    median(transport[k]),
			"http_us":         median(httpT[k]),
			"accounting_err":  (median(transport[k]) + median(httpT[k]) - median(rt[k])) / median(rt[k]),
			"requests_joined": float64(len(rt[k])),
		}
		if len(coreUS[k]) > 0 {
			c := median(coreUS[k])
			row["core_us"] = c
			row["codec_us"] = median(httpT[k]) - c
			row["codec_share_of_http"] = (median(httpT[k]) - c) / median(httpT[k])
			l.set("serve.core_us."+kindNames[k], c)
			l.set("serve.codec_us."+kindNames[k], median(httpT[k])-c)
		}
		split[kindNames[k]] = row
	}

	lr := replayLayers(sp, reqs, arrivals)
	l.set("netsim.catchup_us_per_req", lr.catchupUS)
	l.set("core.round_ns", lr.roundNS)
	if sp.admission {
		l.set("admission.admit_ns", lr.admitNS)
		l.set("admission.service_estimate_us", live.after["admission_service_estimate_ns"]/1000)
	}

	d := func(k string) float64 { return live.after[k] - live.before[k] }
	decisions := d("serve_decisions_total")
	if decisions > 0 {
		l.set("entangle.pairs_per_decision", d("entangle_source_generated_total")/decisions)
	}
	if del := d("entangle_source_delivered_total"); del > 0 {
		l.set("entangle.pair_use_ratio", d("entangle_pool_consumed_total")/del)
	}
	var decisionReqs float64
	for i := range res {
		if res[i].kind != kindInfo {
			decisionReqs++
		}
	}
	for _, r := range shedReasons {
		l.set("admission.shed_share."+r.String(), d(metrics.Key("admission_shed_total", "reason", r.String()))/decisionReqs)
	}
	var rounds, quantum int64
	for _, info := range live.infos {
		rounds += info.Rounds
		quantum += info.QuantumRounds
	}
	if rounds > 0 {
		l.set("core.quantum_share", float64(quantum)/float64(rounds))
	}
	emit(map[string]any{"ledger_split": split, "tracing_overhead_p50": map[string]float64{
		"untraced_ms": ms(p50plain), "traced_ms": ms(p50traced)}})

	rep := &report{Metrics: l.metrics}
	for _, ps := range phases {
		rep.Attempted += ps.Sent
		rep.Failed += ps.Failed
	}
	rep.Correct = rep.Failed == 0
	prov := servingProvenance(sp, "qcoordd", append(qcoorddArgs(), sp.flags()...))
	prov["traced_server"] = append([]string{"qtrace"}, qtraceArgs...)
	return rep, prov, nil
}

// liveCounters are the traced server's counters around the phase.
type liveCounters struct {
	before, after map[string]float64
	infos         []serve.SessionInfo
}

// phaseRun is one server's warm-up and open-loop phase.
type phaseRun struct {
	warm     []result
	res      []result
	live     liveCounters // traced server only
	from, to time.Time    // the open-loop phase
}

// tracePhase launches bin, warms it up and runs the open-loop schedule.
// With tag it also scrapes /metrics around the phase and reads every
// session's info before stopping the server.
func tracePhase(bin string, args []string, reqs []serve.SessionRequest, items []item, seed uint64, sp servingSpec, tag bool) (*phaseRun, error) {
	ids := sessionIDs(reqs)
	c, _, err := launch(bin, args, reqs)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	senders := make([]*sender, runtime.NumCPU())
	for i := range senders {
		senders[i] = newSender(c.base, ids, false)
	}
	pr := &phaseRun{}
	pr.warm, _ = runPhase(senders, closedItems(seed^0x5a5a, warmupRequests, len(ids)), sp.budget, false)
	if tag {
		for _, s := range senders {
			s.tag = true
		}
		if pr.live.before, err = scrape(c.base); err != nil {
			return nil, err
		}
	}
	pr.res, pr.from = runPhase(senders, items, sp.budget, true)
	pr.to = time.Now()
	for _, s := range senders {
		s.close()
	}
	if tag {
		if pr.live.after, err = scrape(c.base); err != nil {
			return nil, err
		}
		for _, id := range ids {
			info, err := sessionInfo(c.base, id)
			if err != nil {
				return nil, err
			}
			pr.live.infos = append(pr.live.infos, info)
		}
	}
	if _, err := c.stop(); err != nil {
		return nil, err
	}
	return pr, nil
}

// arrival is one delivered or shed request in server arrival order.
type arrival struct {
	it      *item
	res     *result
	at      int64         // server handler start, Unix ns
	service time.Duration // server handler duration
}

func (a *arrival) delivered() bool { return a.res.status == statusOK }

func (a *arrival) deadline() time.Time {
	if a.res.deadline == 0 {
		return time.Time{}
	}
	return time.Unix(0, a.res.deadline)
}

// replayServe replays the delivered requests into an in-process
// serve.Server whose clock reads each request's recorded arrival, timing
// each DecideDeadline / DecideBatchDeadline / Info call (µs, per kind).
func replayServe(sp servingSpec, reqs []serve.SessionRequest, arrivals []arrival) ([numKinds][]float64, error) {
	var out [numKinds][]float64
	if len(arrivals) == 0 {
		return out, fmt.Errorf("no traced requests to replay")
	}
	now := time.Unix(0, arrivals[0].at).Add(-maxAdvance)
	cfg := servecfg.Config(sp.admission)
	cfg.Clock = func() time.Time { return now }
	srv := serve.NewServer(cfg)
	defer srv.StopSessions()
	for _, req := range reqs {
		if _, err := srv.CreateSession(req); err != nil {
			return out, err
		}
	}
	resp := make([]serve.DecideResponse, batchRounds())
	for _, a := range arrivals {
		if !a.delivered() {
			continue
		}
		now = time.Unix(0, a.at)
		sid := reqs[a.it.session].ID
		t := time.Now()
		var err error
		switch a.it.kind {
		case kindDecide:
			err = srv.DecideDeadline(sid, a.deadline(), a.it.rounds[0].X, a.it.rounds[0].Y, &resp[0])
		case kindBatch:
			err = srv.DecideBatchDeadline(sid, a.deadline(), a.it.rounds, resp)
		default:
			_, err = srv.Info(sid)
		}
		el := time.Since(t)
		if err == nil {
			out[a.it.kind] = append(out[a.it.kind], us(el))
		}
	}
	return out, nil
}

// layerReplay is the replay's per-layer cost.
type layerReplay struct {
	catchupUS float64 // netsim.Engine.RunUntil per request that advances the engine
	roundNS   float64 // core.Session.Round per round
	admitNS   float64 // admission.Controller.Admit per request
}

// replica is one session's supply chain and core session, built as
// internal/serve builds them.
type replica struct {
	engine   *netsim.Engine
	core     *core.Session
	simNow   time.Duration
	lastWall int64
}

// maxAdvance is serve's per-request cap on simulated catch-up, and
// infoAdvanceTick the least wall time since the last advance for which an
// info poll advances the session (internal/serve's session.info).
const (
	maxAdvance      = 25 * time.Millisecond
	infoAdvanceTick = time.Millisecond
)

func newReplica(req serve.SessionRequest, first int64) (*replica, error) {
	engine := netsim.NewEngine()
	src := entangle.DefaultSource()
	qnic := entangle.DefaultQNIC()
	pool := entangle.NewPool(qnic, 256)
	rng := xrand.New(req.Seed, 0x5e55)
	entangle.StartService(engine, src, pool, rng.Split(1))
	cs, err := core.NewSession(core.Config{
		Game:     games.NewColocationCHSH(),
		Supplier: pool,
		QNIC:     qnic,
		Seed:     req.Seed,
		Health:   &core.HealthConfig{Window: 16, BaseVisibility: src.BaseVisibility, MetricsName: "replay-" + req.ID},
	})
	if err != nil {
		return nil, err
	}
	return &replica{engine: engine, core: cs, lastWall: first - int64(maxAdvance)}, nil
}

// replayLayers replays the delivered requests, in arrival order, into
// per-session engine+pool+service chains and core sessions (timing RunUntil
// and Round apart), and every decision request, shed ones too, into an
// admission controller fed with the live handler times. Like the live
// session, a replica advances on every decision request and on an info
// poll once infoAdvanceTick has passed since its last advance.
func replayLayers(sp servingSpec, reqs []serve.SessionRequest, arrivals []arrival) layerReplay {
	reps := map[int]*replica{}
	var catchup, rounds time.Duration
	var nAdvance, nRounds int
	var ctl *admission.Controller
	if sp.admission {
		ctl = admission.NewController(*servecfg.Admission(), servecfg.Shards)
	}
	var admitT time.Duration
	var nAdmit int
	for _, a := range arrivals {
		info := a.it.kind == kindInfo
		if ctl != nil && !info {
			shard := int(fnv64a(reqs[a.it.session].ID) % servecfg.Shards)
			t := time.Now()
			dec := ctl.Admit(shard, time.Unix(0, a.at), a.deadline(), admission.PriorityNormal, len(a.it.rounds))
			admitT += time.Since(t)
			nAdmit++
			if dec.OK {
				ctl.Observe(shard, a.service/time.Duration(len(a.it.rounds)))
			}
		}
		if !a.delivered() {
			continue
		}
		r := reps[a.it.session]
		if r == nil {
			var err error
			if r, err = newReplica(reqs[a.it.session], a.at); err != nil {
				continue
			}
			reps[a.it.session] = r
		}
		if delta := time.Duration(a.at - r.lastWall); delta > 0 && (!info || delta >= infoAdvanceTick) {
			r.lastWall = a.at
			r.simNow += min(delta, maxAdvance)
			t := time.Now()
			r.engine.RunUntil(r.simNow)
			catchup += time.Since(t)
			nAdvance++
		}
		if info {
			continue
		}
		t := time.Now()
		for _, rd := range a.it.rounds {
			r.core.Round(r.simNow, rd.X, rd.Y)
		}
		rounds += time.Since(t)
		nRounds += len(a.it.rounds)
	}
	var lr layerReplay
	if nAdvance > 0 {
		lr.catchupUS = us(catchup) / float64(nAdvance)
	}
	if nRounds > 0 {
		lr.roundNS = float64(rounds) / float64(nRounds)
	}
	if nAdmit > 0 {
		lr.admitNS = float64(admitT) / float64(nAdmit)
	}
	return lr
}
