package lang

import (
	"fmt"

	"repro/internal/expr"
)

// Standard programs. These are the workloads the paper's introduction
// motivates: divide-and-conquer applicative programs whose evaluation
// unfolds an implicit call tree across the machine (§1). The fixed ones are
// source text read by Parse, the form every program reaches a node in; the
// two whose sums have a generated arity are built as trees. Each builder
// returns a validated program.

// Fib returns the doubly recursive Fibonacci program — the canonical
// binary call tree.
func Fib() *Program {
	return MustParse(`fn fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2)`)
}

// Tak returns the Takeuchi function, a deeper and more irregular call tree
// with nested applications as arguments (exercising multi-wave flattening).
func Tak() *Program {
	return MustParse(`
		fn tak(x, y, z) =
			if y < x then tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
			else z`)
}

// SumRange returns a balanced divide-and-conquer range sum: sum of i for
// lo <= i < hi, summed serially below the grain. Its call tree is a clean
// balanced binary tree, useful when a predictable shape is wanted.
func SumRange(grain int64) *Program {
	return MustParse(fmt.Sprintf(`
		fn sumrange(lo, hi) =
			if hi - lo <= %d then serial(lo, hi)
			else let mid = (lo + hi) / 2 in sumrange(lo, mid) + sumrange(mid, hi)
		fn serial(lo, hi) = if lo >= hi then 0 else lo + serial(lo + 1, hi)`, grain))
}

// Binomial returns the Pascal-triangle binomial coefficient, a DAG-shaped
// recursion evaluated as a tree (shared subproblems are recomputed, which
// inflates the call tree and stresses checkpoint tables).
func Binomial() *Program {
	return MustParse(`
		fn binom(n, k) =
			if k == 0 || k == n then 1
			else binom(n - 1, k - 1) + binom(n - 1, k)`)
}

// NQueens returns the N-queens counting program, a skewed, data-dependent
// call tree. Boards are lists of column numbers, newest row first.
//
// Entry point: nqueens(n) — the number of solutions on an n×n board.
func NQueens() *Program {
	return MustParse(`
		fn nqueens(n) = place(n, 0, [])

		# solutions extending board from row
		fn place(n, row, board) =
			if row == n then 1 else trycols(n, row, 0, board)

		# sum over columns col..n-1 of the solutions obtained by putting a
		# queen at (row, col)
		fn trycols(n, row, col, board) =
			if col == n then 0
			else (if safe(col, 1, board) then place(n, row + 1, col : board) else 0)
				+ trycols(n, row, col + 1, board)

		# no queen on board attacks (row, col), where dist is the row
		# distance to the head of board
		fn safe(col, dist, board) =
			if isnil(board) then true
			else let q = head(board) in
				if q == col || abs(q - col) == dist then false
				else safe(col, dist + 1, tail(board))`)
}

// MergeSort returns a list merge sort. Entry point: msort(xs).
func MergeSort() *Program {
	return MustParse(`
		fn msort(xs) =
			if len(xs) <= 1 then xs
			else let n = len(xs) / 2 in
				merge(msort(take(n, xs)), msort(drop(n, xs)))
		fn take(n, xs) =
			if n <= 0 || isnil(xs) then []
			else head(xs) : take(n - 1, tail(xs))
		fn drop(n, xs) =
			if n <= 0 || isnil(xs) then xs
			else drop(n - 1, tail(xs))
		fn merge(a, b) =
			if isnil(a) then b
			else if isnil(b) then a
			else if head(a) <= head(b) then head(a) : merge(tail(a), b)
			else head(b) : merge(a, tail(b))`)
}

// TreeSum returns a synthetic uniform call tree: every internal node spawns
// `fanout` children down to the given depth and sums the leaves. With its
// perfectly regular shape it is the workhorse of the benchmark sweeps.
//
//	tree(depth) = if depth == 0 then 1 else Σ tree(depth-1)   (fanout times)
func TreeSum(fanout int) *Program {
	children := make([]expr.Expr, fanout)
	for i := range children {
		children[i] = expr.Call("tree", expr.Op("-", expr.V("d"), expr.Int(1)))
	}
	return MustProgram(FuncDef{
		Name:   "tree",
		Params: []string{"d"},
		Body: expr.Cond(
			expr.Op("<=", expr.V("d"), expr.Int(0)),
			expr.Int(1),
			expr.Op("+", children...),
		),
	})
}

// CriticalSections returns the §5.3 workload: a single coordinator fans out
// k "critical" work calls in one wave; each work call performs a pure
// computation of roughly 2×cost reduction steps and returns i+1. Marking
// "work" with a replication degree makes the machine spawn R copies of each
// call and majority-vote their answers — the paper's "user may specify
// certain critical sections of a program for such a highly reliable
// operation".
//
// Entry point: main() = Σ_{i=1..k} work(i).
func CriticalSections(k, cost int) *Program {
	pad := func(e expr.Expr) expr.Expr {
		for i := 0; i < cost; i++ {
			e = expr.Op("+", expr.Int(0), e)
		}
		return e
	}
	calls := make([]expr.Expr, k)
	for i := range calls {
		calls[i] = expr.Call("work", expr.Int(int64(i+1)))
	}
	var body expr.Expr
	if k == 1 {
		body = expr.Op("+", expr.Int(0), calls[0])
	} else {
		body = expr.Op("+", calls...)
	}
	return MustProgram(
		FuncDef{Name: "main", Body: body},
		FuncDef{Name: "work", Params: []string{"i"},
			Body: pad(expr.Op("+", expr.V("i"), expr.Int(1)))},
	)
}
