package netnode

import (
	"repro/internal/core"
	"repro/internal/node"
)

// This file registers the process-per-node cluster as the third substrate,
// "net". The session is internal/node's — the one livenet serves on — one
// level further from the simulator: real OS processes instead of goroutines,
// real sockets instead of channels, SIGKILL instead of cooperative teardown.
// internal/node's conformance suite runs every row on it, and
// core.VerifyOn("net", …) asserts the §2.1 determinacy guarantee across the
// process boundary.

// Backend runs workloads on process-per-node clusters; the zero value is
// the registered "net" backend.
type Backend struct{}

func init() { core.MustRegisterBackend(Backend{}) }

// Name implements core.Backend.
func (Backend) Name() string { return "net" }

// Open implements core.Backend: fork the node processes and keep the
// cluster serving until Close.
func (Backend) Open(cfg core.Config) (core.Session, error) {
	return node.Open("net", cfg, func(spec node.Spec) (node.Machine, error) { return New(spec) })
}
