// Package workload generates synthetic applicative programs with
// controllable call-tree shapes: uniform, skewed (deep spines with light
// side branches), and seeded-random trees. The paper's analysis depends on
// where in the tree a fault lands relative to the frontier of live tasks;
// irregular shapes exercise recovery paths that the regular standard
// programs (fib, tree) cannot — long dependency chains, lopsided fragments,
// and hot spots for the load balancer.
//
// Shapes are compiled to ordinary lang programs: one function per distinct
// node class, integer arguments selecting the subtree, so the whole
// machinery (stamps, checkpoints, recovery) treats them like any other
// program.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/expr"
	"repro/internal/lang"
)

// Shape describes a synthetic tree workload.
type Shape struct {
	// Name labels the workload in reports.
	Name string
	// Depth is the tree height (root at depth 0).
	Depth int
	// Fanout returns the number of children of an internal node at the
	// given depth with the given node index; leaves return 0 implicitly at
	// Depth.
	Fanout func(depth, index int) int
	// LeafCost returns the chain length a leaf computes (its virtual
	// compute time is ~2× this).
	LeafCost func(index int) int
}

// Build's limits. A spec read from outside (core.StandardWorkload) is held
// to them: a shape past the first two cannot be encoded, one past the others
// is refused while it unrolls, not after.
const (
	// MaxFanout is the widest node: child c of node i is node
	// i*MaxFanout+c+1, so a wider one would share an index with a cousin.
	MaxFanout = 8
	// MaxDepth is the deepest tree whose node indices fit an int64: the
	// largest index at depth d is about MaxFanout^(d+1)/7, 2^63/7 at 20.
	MaxDepth = 20
	// MaxNodes bounds the definitions of one unrolled program.
	MaxNodes = 100_000
	// MaxWork bounds the leaf-chain links of one unrolled program (the sum
	// of its leaf costs).
	MaxWork = 1_000_000
)

// Uniform builds a regular tree: every internal node has the same fanout,
// every leaf the same cost.
func Uniform(fanout, depth, leafCost int) Shape {
	return Shape{
		Name:     fmt.Sprintf("uniform(f=%d,d=%d)", fanout, depth),
		Depth:    depth,
		Fanout:   func(int, int) int { return fanout },
		LeafCost: func(int) int { return leafCost },
	}
}

// Skewed builds a spine: each level has one heavy child that recurses and
// width-1 light leaves, producing a deep, narrow tree — the worst case for
// rollback (a late fault near the root of the spine discards nearly
// everything).
func Skewed(width, depth, leafCost int) Shape {
	return Shape{
		Name:  fmt.Sprintf("skewed(w=%d,d=%d)", width, depth),
		Depth: depth,
		Fanout: func(d, index int) int {
			// Build encodes child position c of parent i as i*MaxFanout+c+1,
			// so the spine (position-0 children, plus the root) recurses and
			// the rest are leaves.
			if index == 0 || (index-1)%MaxFanout == 0 {
				return width
			}
			return 0
		},
		LeafCost: func(int) int { return leafCost },
	}
}

// Random builds a seeded irregular tree: fanout 0..maxFanout chosen per
// (depth, index) by a deterministic hash of the seed, leaf costs varied
// similarly. The same seed always yields the same program.
func Random(seed int64, maxFanout, depth, maxLeafCost int) Shape {
	return Shape{
		Name:  fmt.Sprintf("random(seed=%d,f<=%d,d=%d)", seed, maxFanout, depth),
		Depth: depth,
		Fanout: func(d, index int) int {
			r := rand.New(rand.NewSource(seed ^ int64(d)*1_000_003 ^ int64(index)*7919))
			// Bias toward at least one child so trees don't die immediately.
			return 1 + r.Intn(maxFanout)
		},
		LeafCost: func(index int) int {
			r := rand.New(rand.NewSource(seed ^ int64(index)*104_729))
			return 1 + r.Intn(maxLeafCost)
		},
	}
}

// Build compiles the shape into a program. The program has one function,
// "node", taking (depth, index); internal nodes sum their children with
// index = index*MaxFanout + childPos + 1 so node identities stay distinct.
//
// Because lang is first-order with integer arguments, the shape functions
// are evaluated at build time into a dispatch expression: a decision tree
// over depth with per-depth fanout tables would be enormous for irregular
// shapes, so instead Build unrolls the whole tree into one function per
// node class — acceptable for the tree sizes experiments use (≤ a few
// thousand nodes) and faithful to "the program is the evaluation
// structure". Unrolling stops with an error at the first node past MaxNodes
// or leaf-chain link past MaxWork.
func Build(s Shape) (*lang.Program, string, error) {
	if s.Depth < 1 || s.Depth > MaxDepth {
		return nil, "", fmt.Errorf("workload: depth %d outside 1..%d", s.Depth, MaxDepth)
	}
	var defs []lang.FuncDef
	var mk func(depth, index int) string
	var nodes, work int
	var tooBig error
	mk = func(depth, index int) string {
		if tooBig != nil {
			return ""
		}
		if nodes++; nodes > MaxNodes {
			tooBig = fmt.Errorf("workload: shape %s unrolls to more than %d nodes", s.Name, MaxNodes)
			return ""
		}
		name := fmt.Sprintf("n_%d_%d", depth, index)
		fan := 0
		if depth < s.Depth {
			fan = s.Fanout(depth, index)
		}
		if fan <= 0 {
			cost := s.LeafCost(index)
			if work += max(cost, 0); work > MaxWork {
				tooBig = fmt.Errorf("workload: shape %s unrolls to more than %d leaf-chain links", s.Name, MaxWork)
				return ""
			}
			body := expr.Expr(expr.Int(1))
			for i := 0; i < cost; i++ {
				body = expr.Op("+", expr.Int(0), body)
			}
			defs = append(defs, lang.FuncDef{Name: name, Body: body})
			return name
		}
		children := make([]expr.Expr, fan)
		for c := 0; c < fan; c++ {
			childName := mk(depth+1, index*MaxFanout+c+1)
			children[c] = expr.Call(childName)
		}
		var body expr.Expr
		if fan == 1 {
			body = expr.Op("+", expr.Int(0), children[0])
		} else {
			body = expr.Op("+", children...)
		}
		defs = append(defs, lang.FuncDef{Name: name, Body: body})
		return name
	}
	root := mk(0, 0)
	if tooBig != nil {
		return nil, "", tooBig
	}
	prog, err := lang.NewProgram(defs...)
	if err != nil {
		return nil, "", err
	}
	return prog, root, nil
}
