package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/loadtest"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// Request kinds, in the order of loadtest.DefaultScenarios.
const (
	kindDecide = iota
	kindBatch
	kindInfo
	numKinds
)

var kindNames = [numKinds]string{"decide", "batch", "info"}

// item is one scheduled request.
type item struct {
	id      int64
	due     time.Duration // offset from the phase start (open loop only)
	kind    int
	session int
	rounds  []serve.Round // nil for info polls
}

// decisions is the number of decision rounds the request asks for.
func (it *item) decisions() int { return len(it.rounds) }

// mixDeck realizes the loadtest.DefaultScenarios weights as a deck of ten
// kinds. Drawing the mix by shuffling whole decks, not by independent
// categorical draws, keeps the share of batches the same on every seed, so
// the decisions a run offers do not swing with the seed.
func mixDeck() []int {
	scen := loadtest.DefaultScenarios()
	var total float64
	for _, sc := range scen {
		total += sc.Weight
	}
	var deck []int
	for i, sc := range scen {
		n := int(math.Round(10 * sc.Weight / total))
		for j := 0; j < n; j++ {
			deck = append(deck, i)
		}
	}
	return deck
}

// batchRounds is the batch size of the mix's batch scenario.
func batchRounds() int { return loadtest.DefaultScenarios()[kindBatch].Batch }

// itemSource draws an endless, seed-determined request sequence.
type itemSource struct {
	rng      *xrand.RNG
	deck     []int
	pos      int
	sessions int
	next     int64
}

func newItemSource(seed, stream uint64, sessions int, firstID int64) *itemSource {
	d := mixDeck()
	return &itemSource{rng: xrand.Derive(seed, stream), deck: d, pos: len(d), sessions: sessions, next: firstID}
}

func (s *itemSource) draw() item {
	if s.pos == len(s.deck) {
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		s.pos = 0
	}
	kind := s.deck[s.pos]
	s.pos++
	it := item{id: s.next, kind: kind, session: s.rng.IntN(s.sessions)}
	s.next++
	n := 0
	switch kind {
	case kindDecide:
		n = 1
	case kindBatch:
		n = batchRounds()
	}
	if n > 0 {
		it.rounds = make([]serve.Round, n)
		for i := range it.rounds {
			it.rounds[i] = serve.Round{X: s.rng.IntN(2), Y: s.rng.IntN(2)}
		}
	}
	return it
}

// openSchedule is a Poisson schedule at rate req/s over d.
func openSchedule(seed uint64, rate float64, d time.Duration, sessions int) []item {
	src := newItemSource(seed, 1, sessions, 0)
	gaps := xrand.Derive(seed, 2)
	meanGap := float64(time.Second) / rate
	var out []item
	at := time.Duration(0)
	for {
		at += time.Duration(gaps.ExpFloat64() * meanGap)
		if at >= d {
			return out
		}
		it := src.draw()
		it.due = at
		out = append(out, it)
	}
}

// chargeFrom is the instant a request's latency is measured from. free is
// when the sender became free to take the request, sent is when it went on
// the wire. A sender that was still busy at the due time (every connection
// occupied: the server is behind) is charged from the due time, so a stall
// shows in the latency of the requests queued behind it. A sender that was
// free early slept until the due time; the timer waking it late is the
// generator's lateness, not the server's, so it is charged from the send.
func chargeFrom(due, free, sent time.Time) time.Time {
	if free.Before(due) {
		return sent
	}
	return due
}

// percentile returns the nearest-rank q-quantile of sorted samples, and
// whether at least ten samples lie beyond it. A quantile with fewer samples
// beyond it is an extreme value, not a percentile, and is not reported.
func percentile(sorted []time.Duration, q float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx], n-1-idx >= 10
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// window is one of a phase's equal slices, by completion time.
type window struct {
	res      []*result
	from, to time.Time
}

// windows splits a phase's completed requests into k windows by
// completion time.
func windows(res []result, start time.Time, k int) []window {
	var end int64
	for i := range res {
		end = max(end, res[i].doneNS)
	}
	width := time.Duration(end-start.UnixNano()) / time.Duration(k)
	if width <= 0 {
		return nil
	}
	ws := make([]window, k)
	for j := range ws {
		ws[j].from = start.Add(time.Duration(j) * width)
		ws[j].to = ws[j].from.Add(width)
	}
	for i := range res {
		r := &res[i]
		if r.doneNS == 0 {
			continue // no response: nothing completed
		}
		j := min(max(int(time.Duration(r.doneNS-start.UnixNano())/width), 0), k-1)
		ws[j].res = append(ws[j].res, r)
	}
	return ws
}

// quietWindows keeps the windows in which the host stole no more CPU time
// than in the noisiest of the quietest third. Windows that tie with it are
// kept too, in time order: on a quiet host most windows read no steal at
// all, and the kept windows then span the whole phase.
func quietWindows(ws []window, m *stealMeter) []window {
	if len(ws) == 0 {
		return nil
	}
	steal := make([]float64, len(ws))
	for i, w := range ws {
		steal[i] = m.share(w.from, w.to)
	}
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	limit := sorted[(len(sorted)+2)/3-1]
	var kept []window
	for i, w := range ws {
		if steal[i] <= limit {
			kept = append(kept, w)
		}
	}
	return kept
}

// pooled merges the windows' requests into one sample and sums their
// CPU-available time: each window's length less the share the host stole,
// so a rate over it is per second the program could run.
func pooled(ws []window, m *stealMeter) ([]*result, time.Duration) {
	var res []*result
	var avail time.Duration
	for _, w := range ws {
		res = append(res, w.res...)
		avail += m.available(w.from, w.to)
	}
	return res, avail
}

// The statistics below are taken over a pooled sample of requests.

// latencyQuantile is the q-quantile of the delivered requests' charged
// latency, in ms.
func latencyQuantile(w []*result, q float64) (float64, bool) {
	var lat []time.Duration
	for _, r := range w {
		if r.status == statusOK {
			lat = append(lat, r.lat)
		}
	}
	sortDurations(lat)
	v, ok := percentile(lat, q)
	return ms(v), ok
}

// requestRate is completed requests per CPU-available second.
func requestRate(w []*result, avail time.Duration) (float64, bool) {
	return float64(len(w)) / avail.Seconds(), len(w) > 0
}

// goodput is in-budget decisions over offered decisions.
func goodput(w []*result, budget time.Duration) (float64, bool) {
	ps := &phaseStats{budget: budget}
	for _, r := range w {
		ps.add(r)
	}
	return ps.goodputShare(), ps.Offered > 0
}

// decisionRate is delivered decisions per CPU-available second.
func decisionRate(w []*result, avail time.Duration) (float64, bool) {
	n := 0
	for _, r := range w {
		n += r.decided
	}
	return float64(n) / avail.Seconds(), n > 0
}
