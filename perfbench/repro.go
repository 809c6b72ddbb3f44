package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	reproSeed   = "42"
	headerMark  = "──── " // every experiment section starts with it
	footerMark  = "all experiments complete"
	reproProbes = 6 // extra launches, each stopped at the first header, for setup_s
)

func reproArgs() []string {
	return []string{"-seed", reproSeed, "-workers", strconv.Itoa(runtime.NumCPU())}
}

// stripFooter drops the timing footer, the one line of repro's output that
// differs from run to run.
func stripFooter(out []byte) []byte {
	i := bytes.LastIndex(out, []byte(footerMark))
	if i < 0 {
		return out
	}
	return out[:i]
}

// sections splits repro output at the experiment headers.
func sections(out []byte) []string {
	var secs []string
	for _, part := range strings.Split(string(out), "\n"+headerMark)[1:] {
		secs = append(secs, headerMark+part)
	}
	return secs
}

// reproRun is one completed repro execution.
type reproRun struct {
	stdout   []byte
	start    time.Time     // just before exec
	headers  []time.Time   // when each experiment header was read
	end      time.Time     // exit
	setup    time.Duration // exec to the first experiment header
	cpu      time.Duration // utime+stime
	maxRSSMB float64
	art      reproArtifact
}

// reproArtifact is the part of repro's -metrics file the benchmark reads.
type reproArtifact struct {
	Experiments []struct {
		ID     string  `json:"id"`
		WallMS float64 `json:"wall_ms"`
	} `json:"experiments"`
	Metrics []struct {
		Key   string  `json:"key"`
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func (a *reproArtifact) metric(key string) float64 {
	for _, m := range a.Metrics {
		if m.Key == key {
			return m.Value
		}
	}
	return 0
}

// execRepro runs repro, timing the first header line of its stdout. With
// stopAtHeader it kills the process there (a set-up probe).
func execRepro(bin string, args []string, stopAtHeader bool) (*reproRun, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	run := &reproRun{}
	var out bytes.Buffer
	rd := bufio.NewReader(pipe)
	for {
		line, err := rd.ReadBytes('\n')
		out.Write(line)
		if bytes.HasPrefix(line, []byte(headerMark)) {
			now := time.Now()
			run.headers = append(run.headers, now)
			if run.setup == 0 {
				run.setup = now.Sub(start)
			}
			if stopAtHeader {
				_ = cmd.Process.Kill() // Wait below reaps it
				_ = cmd.Wait()
				return run, nil
			}
		}
		if err != nil {
			break
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("repro: %v: %s", err, stderr.String())
	}
	run.start, run.end = start, time.Now()
	if run.setup == 0 {
		return nil, fmt.Errorf("repro printed no experiment header")
	}
	run.stdout = out.Bytes()
	ps := cmd.ProcessState
	run.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		run.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return run, nil
}

// runReproWithMetrics runs repro to the end with a -metrics artifact.
func runReproWithMetrics(e *env, bin string) (*reproRun, error) {
	path := filepath.Join(e.scratch, "repro_metrics.json")
	run, err := execRepro(bin, append(reproArgs(), "-metrics", path), false)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &run.art); err != nil {
		return nil, fmt.Errorf("repro metrics: %w", err)
	}
	if len(run.art.Experiments) == 0 {
		return nil, fmt.Errorf("repro metrics list no experiments")
	}
	return run, nil
}

var winRateRE = regexp.MustCompile(`sampled quantum win rate \(n=\d+\): ([0-9.]+)`)

// reproCheck compares a run's stdout with the committed output, whole and
// by experiment section.
type reproCheck struct {
	identical bool
	matched   int // sections equal to the committed ones
	expected  int
}

func checkRepro(got, want []byte) reproCheck {
	got, want = stripFooter(got), stripFooter(want)
	c := reproCheck{identical: bytes.Equal(got, want)}
	gs, ws := sections(got), sections(want)
	c.expected = len(ws)
	for i := range ws {
		if i < len(gs) && gs[i] == ws[i] {
			c.matched++
		}
	}
	return c
}

// runRepro is the timed repro workload: set-up probes, then whole runs
// until --seconds have passed (at least one).
func runRepro(e *env) (*report, map[string]any, error) {
	bin := filepath.Join(e.bin, "repro")
	want, err := os.ReadFile(filepath.Join(e.root, "repro_output.txt"))
	if err != nil {
		return nil, nil, err
	}
	var setups []float64
	for k := 0; k < reproProbes; k++ {
		run, err := execRepro(bin, reproArgs(), true)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs(run.setup))
	}
	rep := &report{Correct: true}
	meter := startStealMeter()
	defer meter.stop()
	var runs []*reproRun
	for start := time.Now(); len(runs) == 0 || time.Since(start) < e.seconds; {
		run, err := runReproWithMetrics(e, bin)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, run)
	}
	meter.stop()

	// Times are CPU-available time: repro keeps every CPU busy, so the
	// share the hypervisor stole (steal.go) is time it could not progress.
	var walls, p50s, maxes, dps, cpuPer, rss, wins, shares []float64
	for _, run := range runs {
		rep.Attempted++
		chk := checkRepro(run.stdout, want)
		if !chk.identical {
			rep.Failed++
			rep.Correct = false
		}
		m := winRateRE.FindSubmatch(run.stdout)
		served := run.art.metric("loadbalance_tasks_served_total")
		if m == nil || served == 0 {
			return nil, nil, fmt.Errorf("repro output lacks the E1 win rate or the served-task count")
		}
		w, _ := strconv.ParseFloat(string(m[1]), 64)
		var slowest float64
		for _, x := range run.art.Experiments {
			slowest = max(slowest, x.WallMS)
		}
		var toHeader []float64
		for _, h := range run.headers {
			toHeader = append(toHeader, ms(meter.available(run.start, h)))
		}
		wall := meter.available(run.start, run.end)
		setups = append(setups, secs(run.setup))
		walls = append(walls, secs(wall))
		p50s = append(p50s, median(toHeader))
		maxes = append(maxes, slowest*(1-meter.share(run.start, run.end)))
		dps = append(dps, served/wall.Seconds())
		cpuPer = append(cpuPer, us(run.cpu)/served)
		rss = append(rss, run.maxRSSMB)
		wins = append(wins, w)
		shares = append(shares, float64(chk.matched)/float64(chk.expected))
	}
	rep.Metrics = map[string]metric{
		"setup_s":             {median(setups), "s"},
		"latency_p50_ms":      {median(p50s), "ms"},
		"capacity_dps":        {median(dps), "decisions/s"},
		"capacity_p99_ms":     {median(maxes), "ms"},
		"goodput_share":       {median(shares), "share"},
		"cpu_us_per_decision": {median(cpuPer), "us"},
		"win_rate":            {median(wins), "share"},
		"peak_rss_mb":         {minOf(rss), "MiB"},
		"wall_s":              {median(walls), "s"},
	}
	return rep, reproProvenance(), nil
}

// minOf is the least value. repro's peak resident set depends on whether
// two experiments' allocation peaks happen to overlap on the workers, so a
// run reports the least of its repetitions' peaks: the footprint the
// program needs, which a leak or a larger working set still raises.
func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		m = min(m, x)
	}
	return m
}

func reproProvenance() map[string]any {
	return map[string]any{"program": append([]string{"repro"}, reproArgs()...)}
}

// traceRepro is the per-layer run of the repro workload: one run's
// -metrics artifact, split by experiment and by layer.
func traceRepro(e *env) (*report, map[string]any, error) {
	bin := filepath.Join(e.bin, "repro")
	want, err := os.ReadFile(filepath.Join(e.root, "repro_output.txt"))
	if err != nil {
		return nil, nil, err
	}
	run, err := runReproWithMetrics(e, bin)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{Correct: checkRepro(run.stdout, want).identical, Attempted: 1}
	if !rep.Correct {
		rep.Failed = 1
	}
	l := newLedger()
	for _, x := range run.art.Experiments {
		l.set("experiments."+x.ID+"_s", x.WallMS/1000)
	}
	var hits, misses float64
	for _, m := range run.art.Metrics {
		switch {
		case strings.HasPrefix(m.Key, "solvecache_hits{"):
			hits += m.Value
		case strings.HasPrefix(m.Key, "solvecache_misses{"):
			misses += m.Value
		}
	}
	if hits+misses > 0 {
		l.set("games.solvecache_hit_ratio", hits/(hits+misses))
	}
	l.set("parallel.utilization", run.art.metric("parallel_utilization"))
	rep.Metrics = l.metrics
	return rep, reproProvenance(), nil
}
