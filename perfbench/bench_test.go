package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/games"
	"repro/internal/serve"
)

func TestChargeFrom(t *testing.T) {
	due := time.Unix(100, 0)
	// The sender was free before the due time and slept; the timer woke it
	// 400µs late. The slop is not charged: latency runs from the send.
	sent := due.Add(400 * time.Microsecond)
	if got := chargeFrom(due, due.Add(-time.Millisecond), sent); !got.Equal(sent) {
		t.Errorf("slept sender charged from %v, want the send %v", got, sent)
	}
	// Every sender was busy until 2ms past the due time: the wait is the
	// server's, so latency runs from the due time.
	late := due.Add(2 * time.Millisecond)
	if got := chargeFrom(due, late, late); !got.Equal(due) {
		t.Errorf("busy sender charged from %v, want the due time %v", got, due)
	}
	// Free exactly at the due time: no sleep happened, charge from due.
	if got := chargeFrom(due, due, due.Add(time.Microsecond)); !got.Equal(due) {
		t.Errorf("sender free at due charged from %v, want %v", got, due)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []time.Duration {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Duration(i+1) * time.Millisecond
		}
		return d
	}
	// p99 of 1000 samples is the 990th; 10 lie beyond it.
	if v, ok := percentile(mk(1000), 0.99); !ok || v != 990*time.Millisecond {
		t.Errorf("p99 of 1000 = %v, %v; want 990ms, true", v, ok)
	}
	// p99 of 999 samples is the 990th too, but only 9 lie beyond it.
	if _, ok := percentile(mk(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with 9 beyond it")
	}
	if v, ok := percentile(mk(21), 0.50); !ok || v != 11*time.Millisecond {
		t.Errorf("p50 of 21 = %v, %v; want 11ms, true", v, ok)
	}
	if _, ok := percentile(mk(19), 0.50); ok {
		t.Error("p50 of 19 samples reported with 9 beyond it")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestGoodputShareCountsMisses(t *testing.T) {
	ps := &phaseStats{budget: 5 * time.Millisecond}
	for _, r := range []result{
		{status: statusOK, offered: 64, decided: 64, lat: time.Millisecond},      // in budget
		{status: statusOK, offered: 1, decided: 1, lat: 6 * time.Millisecond},    // late
		{status: statusShed, offered: 64},                                        // shed
		{status: statusFailed, offered: 1, err: "decide: 500"},                   // failed
		{status: statusOK, offered: 1, decided: 1, lat: 5 * time.Millisecond},    // exactly on budget
		{status: statusOK, offered: 0, decided: 0, lat: 9 * time.Millisecond},    // info poll: no decisions, never late
		{status: statusOK, offered: 64, decided: 64, lat: 4 * time.Millisecond},  // in budget
		{status: statusOK, offered: 64, decided: 64, lat: 40 * time.Millisecond}, // late batch
	} {
		ps.add(&r)
	}
	if ps.Offered != 259 || ps.InBudget != 129 || ps.Delivered != 194 {
		t.Fatalf("offered %d, in budget %d, delivered %d; want 259, 129, 194", ps.Offered, ps.InBudget, ps.Delivered)
	}
	if ps.Late != 2 || ps.Shed != 1 || ps.Failed != 1 || ps.Succeeded != 6 || ps.Sent != 8 {
		t.Errorf("late %d shed %d failed %d succeeded %d sent %d; want 2 1 1 6 8", ps.Late, ps.Shed, ps.Failed, ps.Succeeded, ps.Sent)
	}
	if got, want := ps.goodputShare(), 129.0/259; got != want {
		t.Errorf("goodput share %v, want %v", got, want)
	}
}

func TestCheckDecision(t *testing.T) {
	g := games.NewColocationCHSH()
	// The colocation game wins iff a⊕b equals its parity table
	// [[1,1],[1,0]]: the parties must differ unless both inputs are 1.
	ok := serve.DecideResponse{Session: "s000", A: 1, B: 0, Win: true} // x=0,y=0: parity 1, 1⊕0=1
	if err := checkDecision(g, "s000", 0, 0, &ok); err != nil {
		t.Errorf("correct decision rejected: %v", err)
	}
	lie := serve.DecideResponse{Session: "s000", A: 1, B: 1, Win: true} // x=0,y=0: 1⊕1=0, a loss
	if err := checkDecision(g, "s000", 0, 0, &lie); err == nil || !strings.Contains(err.Error(), "win=true") {
		t.Errorf("misreported win accepted: %v", err)
	}
	same := serve.DecideResponse{Session: "s000", A: 1, B: 1, Win: true} // x=1,y=1: parity 0, 1⊕1=0, a win
	if err := checkDecision(g, "s000", 1, 1, &same); err != nil {
		t.Errorf("correct win at (1,1) rejected: %v", err)
	}
	other := ok
	other.Session = "s001"
	if err := checkDecision(g, "s000", 0, 0, &other); err == nil {
		t.Error("decision for another session accepted")
	}
	notBit := serve.DecideResponse{Session: "s000", A: 2, B: 0}
	if err := checkDecision(g, "s000", 0, 0, &notBit); err == nil {
		t.Error("non-bit output accepted")
	}
}

func TestClassify(t *testing.T) {
	for code, want := range map[int]status{200: statusOK, 201: statusOK, 429: statusShed, 503: statusShed, 400: statusFailed, 404: statusFailed, 500: statusFailed, 502: statusFailed} {
		if got := classify(code); got != want {
			t.Errorf("classify(%d) = %v, want %v", code, got, want)
		}
	}
}

func TestMixDeckAndSchedule(t *testing.T) {
	deck := mixDeck()
	var n [numKinds]int
	for _, k := range deck {
		n[k]++
	}
	if n != [numKinds]int{6, 3, 1} {
		t.Fatalf("deck %v, want 6 decide, 3 batch, 1 info", n)
	}
	a := openSchedule(7, 1000, time.Second, 4)
	b := openSchedule(7, 1000, time.Second, 4)
	if len(a) != len(b) || len(a) < 900 || len(a) > 1100 {
		t.Fatalf("schedule lengths %d, %d at 1000/s over 1s", len(a), len(b))
	}
	for i := range a {
		if a[i].due != b[i].due || a[i].kind != b[i].kind || a[i].session != b[i].session || len(a[i].rounds) != len(b[i].rounds) {
			t.Fatalf("same seed, different request %d", i)
		}
	}
}

func TestCheckReproIgnoresFooter(t *testing.T) {
	want := []byte("\n──── E1: a ────\nx 1\n\n──── E2: b ────\ny 2\n\nall experiments complete in 12.9s\n")
	got := []byte("\n──── E1: a ────\nx 1\n\n──── E2: b ────\ny 2\n\nall experiments complete in 10.1s\n")
	if c := checkRepro(got, want); !c.identical || c.matched != 2 || c.expected != 2 {
		t.Errorf("footer difference counted: %+v", c)
	}
	bad := []byte("\n──── E1: a ────\nx 1\n\n──── E2: b ────\ny 3\n\nall experiments complete in 10.1s\n")
	if c := checkRepro(bad, want); c.identical || c.matched != 1 {
		t.Errorf("changed section not caught: %+v", c)
	}
}

// stealTimeline is a meter whose host steals the given number of ticks, out
// of 200, in each one-second window from t0 on, and those windows.
func stealTimeline(t0 time.Time, stolen []int64) (*stealMeter, []window) {
	m := &stealMeter{done: make(chan struct{})}
	close(m.done)
	var cum int64
	m.samples = append(m.samples, stealSample{at: t0})
	var ws []window
	for i, s := range stolen {
		cum += s
		from := t0.Add(time.Duration(i) * time.Second)
		m.samples = append(m.samples, stealSample{at: from.Add(time.Second), steal: cum, total: int64(i+1) * 200})
		ws = append(ws, window{from: from, to: from.Add(time.Second)})
	}
	return m, ws
}

func TestQuietWindowsDropStolenWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// Six windows; the host steals 0, 50%, 0, 25%, 10% and 5%.
	m, ws := stealTimeline(t0, []int64{0, 100, 0, 50, 20, 10})
	q := quietWindows(ws, m)
	if len(q) != 2 || !q[0].from.Equal(t0) || !q[1].from.Equal(t0.Add(2*time.Second)) {
		t.Errorf("quiet windows are %v, want the two without steal", q)
	}
	if got := m.available(t0.Add(3*time.Second), t0.Add(4*time.Second)); got != 750*time.Millisecond {
		t.Errorf("available time over a 25%%-stolen 1s = %v, want 750ms", got)
	}
	// An interval past the last sample is not bracketed: no steal known.
	if got := m.share(t0, t0.Add(10*time.Second)); got != 0 {
		t.Errorf("unbracketed share = %v, want 0", got)
	}
}

func TestQuietWindowsKeepTiesAcrossThePhase(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// Nine windows, one with steal: the eight quiet ones tie and are all
	// kept, the last one included, so a slowdown late in the phase counts.
	m, ws := stealTimeline(t0, []int64{0, 0, 0, 0, 40, 0, 0, 0, 0})
	q := quietWindows(ws, m)
	if len(q) != 8 || !q[7].from.Equal(t0.Add(8*time.Second)) {
		t.Fatalf("kept %d windows ending at %v, want 8 ending at the phase's last", len(q), q[len(q)-1].from)
	}
	for _, w := range q {
		if w.from.Equal(t0.Add(4 * time.Second)) {
			t.Error("stolen window kept")
		}
	}
}

func TestPooledPercentileSeesAStallInOneWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	m, ws := stealTimeline(t0, []int64{0, 0, 0, 0})
	// 250 requests per window at 1 ms; one window stalls: 60 of its
	// requests take 50 ms. A median of per-window p99s would read 1 ms; the
	// pooled p99 over 1000 requests reads the stall.
	for j := range ws {
		for i := 0; i < 250; i++ {
			lat := time.Millisecond
			if j == 2 && i < 60 {
				lat = 50 * time.Millisecond
			}
			ws[j].res = append(ws[j].res, &result{status: statusOK, lat: lat, decided: 1})
		}
	}
	res, avail := pooled(quietWindows(ws, m), m)
	if len(res) != 1000 || avail != 4*time.Second {
		t.Fatalf("pooled %d requests over %v, want 1000 over 4s", len(res), avail)
	}
	if p99, ok := latencyQuantile(res, 0.99); !ok || p99 != 50 {
		t.Errorf("pooled p99 = %v ms (%v), want 50", p99, ok)
	}
	if r, ok := decisionRate(res, avail); !ok || r != 250 {
		t.Errorf("decision rate %v, want 250/s", r)
	}
}
