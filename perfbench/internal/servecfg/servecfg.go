// Package servecfg is the one definition of the server configuration the
// benchmark's serving workloads run with: cmd/qcoordd's flag defaults, with
// or without -admission. The traced server (qtrace) and the in-process
// replays both build their serve.Config here, so they cannot disagree.
package servecfg

import (
	"time"

	"repro/internal/admission"
	"repro/internal/serve"
)

// Shards is qcoordd's default -shards: the session-store stripe width.
const Shards = 16

// DrainTimeout is qcoordd's default -drain-timeout.
const DrainTimeout = 10 * time.Second

// Admission is qcoordd's admission configuration at the default
// -admission-service, -admission-max-backlog and -admission-default-budget.
func Admission() *admission.Config {
	return &admission.Config{InitialService: 50 * time.Microsecond, MaxBacklog: 50 * time.Millisecond}
}

// Config is the serve.Config qcoordd builds from its defaults, with
// admission control when admissionOn is set (qcoordd -admission).
func Config(admissionOn bool) serve.Config {
	cfg := serve.Config{Shards: Shards}
	if admissionOn {
		cfg.Admission = Admission()
	}
	return cfg
}
