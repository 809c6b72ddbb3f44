// Command perfbench is the repository's benchmark. Each invocation runs one
// workload from the repository root and prints, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Earlier lines carry
// the provenance and the per-phase request counts.
//
//	bash perfbench/run.sh --workload hot-pair --seed 1 --seconds 10 --trace 0
//
// Workloads: hot-pair and fleet drive a qcoordd child process over loopback
// (open loop, then closed loop); repro runs cmd/repro and compares its
// stdout with repro_output.txt. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 a separate traced run reports the
// per-layer ledger instead. See README.md for every definition.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env locates the built binaries and the repository files.
type env struct {
	root    string
	bin     string // directory holding qcoordd, repro and qtrace (built by run.sh)
	scratch string // per-run files
	seed    uint64
	seconds time.Duration
}

func main() { os.Exit(run()) }

// run executes one invocation and returns the exit code: 0 for a correct
// run, 1 when a correctness check failed, 2 when the run could not finish.
func run() int {
	workload := flag.String("workload", "", "hot-pair, fleet or repro")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	e := &env{root: root, bin: filepath.Join(root, ".bench_build", "bin"), seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	e.scratch, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.scratch)

	var rep *report
	var prov map[string]any
	_, serving := servingSpecs[*workload]
	switch {
	case serving && *trace == 0:
		rep, prov, err = runServing(e, *workload)
	case serving:
		rep, prov, err = traceServing(e, *workload)
	case *workload == "repro" && *trace == 0:
		rep, prov, err = runRepro(e)
	case *workload == "repro":
		rep, prov, err = traceRepro(e)
	default:
		err = fmt.Errorf("unknown workload %q (want hot-pair, fleet or repro)", *workload)
	}
	if err != nil {
		return fail(err)
	}
	prov["workload"] = *workload
	prov["trace"] = *trace
	prov["seconds"] = *seconds
	for k, v := range provenance(e) {
		prov[k] = v
	}
	emit(map[string]any{"provenance": prov})
	emit(rep)
	if !rep.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

// emit prints v as one JSON line. Every value the benchmark prints is a
// plain struct or map of numbers and strings, which always marshals.
func emit(v any) {
	b, _ := json.Marshal(v)
	fmt.Println(string(b))
}

// provenance records where and on what the numbers were taken.
func provenance(e *env) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(e.root),
		"seed":       e.seed,
	}
}

// commit names the source tree: the git commit when there is one, else a
// digest of the Go sources and go.mod, which identifies a checkout without
// history as well.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// ms, us and secs convert durations to the report's units.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// runServing is the timed run of a qcoordd workload: set-up probes, then a
// warm-up, the open-loop phase and the closed-loop phase on one server.
func runServing(e *env, name string) (*report, map[string]any, error) {
	sp := servingSpecs[name]
	reqs := sessionRequests(sp, e.seed)
	ids := sessionIDs(reqs)
	qcoordd := filepath.Join(e.bin, "qcoordd")
	args := append(qcoorddArgs(), sp.flags()...)

	var setups []float64
	for k := 0; k < setupProbes; k++ {
		c, setup, err := launch(qcoordd, args, reqs)
		if err != nil {
			return nil, nil, err
		}
		if _, err := c.stop(); err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs(setup))
	}
	c, setup, err := launch(qcoordd, args, reqs)
	if err != nil {
		return nil, nil, err
	}
	defer c.kill()
	setups = append(setups, secs(setup))

	senders := make([]*sender, runtime.NumCPU())
	for i := range senders {
		senders[i] = newSender(c.base, ids, false)
	}
	warmRes, _ := runPhase(senders, closedItems(e.seed^0x5a5a, warmupRequests, len(ids)), sp.budget, false)

	items := openSchedule(e.seed, sp.rate, sp.openDuration(e.seconds), len(ids))
	meter := startStealMeter()
	defer meter.stop()
	cpu0, err := procCPU(c.pid())
	if err != nil {
		return nil, nil, err
	}
	openRes, openStart := runPhase(senders, items, sp.budget, true)
	cpu1, err := procCPU(c.pid())
	if err != nil {
		return nil, nil, err
	}
	var closedRes []result
	closedStart := time.Now()
	if n := sp.closedRequests(e.seconds); n > 0 {
		closedRes, closedStart = runPhase(senders, closedItems(e.seed, n, len(ids)), sp.budget, false)
	}
	closedEnd := time.Now()
	meter.stop()
	hwm, err := procHWM(c.pid())
	if err != nil {
		return nil, nil, err
	}
	for _, s := range senders {
		s.close()
	}
	if _, err := c.stop(); err != nil {
		return nil, nil, err
	}

	// The warm-up is checked and accounted like the phases but stays out of
	// the metrics.
	warm := tally("warmup", sp.budget, warmRes)
	open, closed := tally("open", sp.budget, openRes), tally("closed", sp.budget, closedRes)
	open.Steal = meter.share(openStart, closedStart)
	closed.Steal = meter.share(closedStart, closedEnd)
	// The capacity figures come from the closed phase; a workload without
	// one takes them from the open phase.
	capName, capRes, capStart := "closed", closedRes, closedStart
	if len(closedRes) == 0 {
		capName, capRes, capStart = "open", openRes, openStart
		emitPhases(warm, open)
	} else {
		emitPhases(warm, open, closed)
	}
	if open.Delivered == 0 {
		return nil, nil, fmt.Errorf("no decisions delivered in the open phase")
	}
	openW, _ := pooled(quietWindows(windows(openRes, openStart, statWindows), meter), meter)
	capW, capAvail := pooled(quietWindows(windows(capRes, capStart, statWindows), meter), meter)
	p50, ok1 := latencyQuantile(openW, 0.50)
	good, ok2 := goodput(openW, sp.budget)
	p99, ok3 := latencyQuantile(capW, 0.99)
	capacity, ok4 := decisionRate(capW, capAvail)
	reqRate, ok5 := requestRate(capW, capAvail)
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
		return nil, nil, fmt.Errorf("too few samples in the quiet windows: open %d, %s %d requests", len(openW), capName, len(capW))
	}
	failed := warm.Failed + open.Failed + closed.Failed
	rep := &report{
		Correct:   failed == 0,
		Attempted: warm.Sent + open.Sent + closed.Sent,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":             {median(setups), "s"},
			"latency_p50_ms":      {p50, "ms"},
			"capacity_dps":        {capacity, "decisions/s"},
			"capacity_p99_ms":     {p99, "ms"},
			"goodput_share":       {good, "share"},
			"cpu_us_per_decision": {us(cpu1-cpu0) / float64(open.Delivered), "us"},
			"win_rate":            {float64(open.Won+closed.Won) / float64(open.Delivered+closed.Delivered), "share"},
			"peak_rss_mb":         {hwm, "MiB"},
			"wall_s":              {float64(len(capRes)) / reqRate, "s"},
		},
	}
	return rep, servingProvenance(sp, qcoordd, args), nil
}

func servingProvenance(sp servingSpec, bin string, args []string) map[string]any {
	return map[string]any{
		"server":           append([]string{filepath.Base(bin)}, args...),
		"session_template": sessionTemplate,
		"sessions":         sp.sessions,
		"open_rate_rps":    sp.rate,
		"budget_ms":        ms(sp.budget),
		"connections":      runtime.NumCPU(),
		"mix":              mixDeck(),
	}
}

// emitPhases prints each phase's request accounting.
func emitPhases(phases ...*phaseStats) {
	for _, ps := range phases {
		p50, _ := percentile(ps.lateness, 0.50)
		p99, _ := percentile(ps.lateness, 0.99)
		emit(map[string]any{"phase": ps, "gen_lateness_p50_ms": ms(p50), "gen_lateness_p99_ms": ms(p99), "errors": ps.errs})
	}
}
