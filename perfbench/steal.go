package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a shared VM the hypervisor withholds the CPUs in bursts of a second or
// two (steal, in /proc/stat), and a run that catches one reads 10–50% slower
// on every timing. The benchmark measures the program, so it records steal
// while it measures and leaves the stolen time out: serving figures come
// from the windows with the least steal, repro's from CPU-available time.

// stealSample is the host's cumulative CPU time at one instant, in ticks.
type stealSample struct {
	at           time.Time
	steal, total int64
}

// stealMeter samples /proc/stat every stealPeriod until stopped.
type stealMeter struct {
	mu      sync.Mutex
	samples []stealSample
	quit    chan struct{}
	done    chan struct{}
}

const stealPeriod = 100 * time.Millisecond

// readStat reads the aggregate cpu line of /proc/stat: steal ticks, and all
// ticks from user to steal (guest time is already counted in user).
func readStat() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
	}
	steal, _ = strconv.ParseInt(f[8], 10, 64)
	return steal, total, nil
}

// startStealMeter starts sampling. A host without /proc/stat gets a meter
// that reports no steal.
func startStealMeter() *stealMeter {
	m := &stealMeter{quit: make(chan struct{}), done: make(chan struct{})}
	if _, _, err := readStat(); err != nil {
		close(m.done)
		return m
	}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-m.quit:
				m.sample()
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMeter) sample() {
	s, t, err := readStat()
	if err != nil {
		return
	}
	m.mu.Lock()
	m.samples = append(m.samples, stealSample{at: time.Now(), steal: s, total: t})
	m.mu.Unlock()
}

// stop takes a last sample and waits for the sampler to exit.
func (m *stealMeter) stop() {
	select {
	case <-m.done:
		return
	default:
	}
	close(m.quit)
	<-m.done
}

// share is the fraction of the host's CPU time stolen between from and to,
// over the samples that bracket the interval (0 when none do).
func (m *stealMeter) share(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var a, b *stealSample
	for i := range m.samples {
		s := &m.samples[i]
		if !s.at.After(from) {
			a = s
		}
		if b == nil && !s.at.Before(to) {
			b = s
		}
	}
	if a == nil || b == nil || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// available is the CPU-available part of [from, to]: its length less the
// stolen share.
func (m *stealMeter) available(from, to time.Time) time.Duration {
	d := to.Sub(from)
	return d - time.Duration(float64(d)*m.share(from, to))
}
