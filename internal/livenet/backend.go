package livenet

import (
	"repro/internal/core"
	"repro/internal/node"
)

// Backend runs workloads on the live goroutine cluster. The zero value is
// the registered "live" backend; construct one directly to override the
// tick-to-wall Timescale or the Wait Deadline. How a core.Config maps onto
// the wall clock, and which knobs are rejected, is internal/node's session.
type Backend struct{ node.Clock }

func init() { core.MustRegisterBackend(Backend{}) }

// Name implements core.Backend.
func (Backend) Name() string { return "live" }

// Open implements core.Backend: bring the goroutine network up and
// keep it serving until Close.
func (b Backend) Open(cfg core.Config) (core.Session, error) {
	return node.Open("live", cfg, b.Clock, func(spec node.Spec) (node.Machine, error) { return New(spec) })
}
