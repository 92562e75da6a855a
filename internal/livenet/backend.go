package livenet

import (
	"repro/internal/core"
	"repro/internal/node"
)

// Backend runs workloads on the live goroutine cluster; the zero value is
// the registered "live" backend. How a core.Config maps onto the wall clock,
// and which knobs are rejected, is internal/node's session.
type Backend struct{}

func init() { core.MustRegisterBackend(Backend{}) }

// Name implements core.Backend.
func (Backend) Name() string { return "live" }

// Open implements core.Backend: bring the goroutine network up and
// keep it serving until Close.
func (Backend) Open(cfg core.Config) (core.Session, error) {
	return node.Open("live", cfg, func(spec node.Spec) (node.Machine, error) { return New(spec) })
}
