package expr

// Subst replaces free occurrences of name with the literal value v.
// Let bindings of the same name shadow the substitution in their body (but
// not in their bind expression), which is the only capture case in this
// first-order language: function bodies are closed except for parameters,
// and parameters are substituted before a body ever mixes with caller
// expressions.
//
// Expressions are immutable, so unchanged subtrees are returned as-is
// rather than rebuilt; the changed flag threaded through the helpers below
// is what makes that sharing exact (a node is copied iff some descendant
// actually changed).
func Subst(e Expr, name string, v Value) Expr {
	out, _ := subst(e, name, v)
	return out
}

func subst(e Expr, name string, v Value) (Expr, bool) {
	switch n := e.(type) {
	case Lit, Hole:
		return e, false
	case Var:
		if n.Name == name {
			return Lit{v}, true
		}
		return e, false
	case Prim:
		args, changed := substSlice(n.Args, name, v)
		if !changed {
			return e, false
		}
		return Prim{Op: n.Op, Args: args}, true
	case If:
		c, cc := subst(n.Cond, name, v)
		t, tc := subst(n.Then, name, v)
		f, fc := subst(n.Else, name, v)
		if !cc && !tc && !fc {
			return e, false
		}
		return If{Cond: c, Then: t, Else: f}, true
	case Let:
		bind, bc := subst(n.Bind, name, v)
		body, yc := n.Body, false
		if n.Name != name { // shadowed otherwise
			body, yc = subst(n.Body, name, v)
		}
		if !bc && !yc {
			return e, false
		}
		return Let{Name: n.Name, Bind: bind, Body: body}, true
	case Apply:
		args, changed := substSlice(n.Args, name, v)
		if !changed {
			return e, false
		}
		return Apply{Fn: n.Fn, Args: args}, true
	default:
		panic("expr: unknown node in Subst")
	}
}

// SubstMany replaces free occurrences of names[i] with vals[i] in one tree
// walk. Because substituted values are closed literals, the result is
// identical to applying Subst once per name in any order — this is the
// instantiation fast path (one walk per application instead of one per
// parameter). At most 64 names are supported (shadowing is tracked in a
// bitmask); longer lists fall back to sequential Subst.
func SubstMany(e Expr, names []string, vals []Value) Expr {
	if len(names) == 0 {
		return e
	}
	if len(names) == 1 {
		return Subst(e, names[0], vals[0])
	}
	if len(names) > 64 {
		for i, name := range names {
			e = Subst(e, name, vals[i])
		}
		return e
	}
	out, _ := substMany(e, names, vals, 0)
	return out
}

// substMany is the recursive worker; shadow has bit i set when names[i] is
// let-bound in the current scope and must not be substituted.
func substMany(e Expr, names []string, vals []Value, shadow uint64) (Expr, bool) {
	switch n := e.(type) {
	case Lit, Hole:
		return e, false
	case Var:
		for i, name := range names {
			if shadow&(1<<uint(i)) == 0 && n.Name == name {
				return Lit{vals[i]}, true
			}
		}
		return e, false
	case Prim:
		args, changed := substManySlice(n.Args, names, vals, shadow)
		if !changed {
			return e, false
		}
		return Prim{Op: n.Op, Args: args}, true
	case If:
		c, cc := substMany(n.Cond, names, vals, shadow)
		t, tc := substMany(n.Then, names, vals, shadow)
		f, fc := substMany(n.Else, names, vals, shadow)
		if !cc && !tc && !fc {
			return e, false
		}
		return If{Cond: c, Then: t, Else: f}, true
	case Let:
		bind, bc := substMany(n.Bind, names, vals, shadow)
		bodyShadow := shadow
		for i, name := range names {
			if n.Name == name {
				bodyShadow |= 1 << uint(i)
			}
		}
		body, yc := substMany(n.Body, names, vals, bodyShadow)
		if !bc && !yc {
			return e, false
		}
		return Let{Name: n.Name, Bind: bind, Body: body}, true
	case Apply:
		args, changed := substManySlice(n.Args, names, vals, shadow)
		if !changed {
			return e, false
		}
		return Apply{Fn: n.Fn, Args: args}, true
	default:
		panic("expr: unknown node in SubstMany")
	}
}

func substManySlice(in []Expr, names []string, vals []Value, shadow uint64) ([]Expr, bool) {
	var out []Expr
	for i, a := range in {
		b, changed := substMany(a, names, vals, shadow)
		if changed && out == nil {
			out = make([]Expr, len(in))
			copy(out, in[:i])
		}
		if out != nil {
			out[i] = b
		}
	}
	if out == nil {
		return in, false
	}
	return out, true
}

// FillHoles replaces each Hole whose ID appears in fills with the
// corresponding literal value. Holes without a binding remain. Like Subst,
// untouched subtrees are shared, not copied.
func FillHoles(e Expr, fills map[int]Value) Expr {
	if len(fills) == 0 {
		return e
	}
	out, _ := fillHoles(e, fills)
	return out
}

func fillHoles(e Expr, fills map[int]Value) (Expr, bool) {
	switch n := e.(type) {
	case Lit, Var:
		return e, false
	case Hole:
		if v, ok := fills[n.ID]; ok {
			return Lit{v}, true
		}
		return e, false
	case Prim:
		args, changed := fillSlice(n.Args, fills)
		if !changed {
			return e, false
		}
		return Prim{Op: n.Op, Args: args}, true
	case If:
		c, cc := fillHoles(n.Cond, fills)
		t, tc := fillHoles(n.Then, fills)
		f, fc := fillHoles(n.Else, fills)
		if !cc && !tc && !fc {
			return e, false
		}
		return If{Cond: c, Then: t, Else: f}, true
	case Let:
		bind, bc := fillHoles(n.Bind, fills)
		body, yc := fillHoles(n.Body, fills)
		if !bc && !yc {
			return e, false
		}
		return Let{Name: n.Name, Bind: bind, Body: body}, true
	case Apply:
		args, changed := fillSlice(n.Args, fills)
		if !changed {
			return e, false
		}
		return Apply{Fn: n.Fn, Args: args}, true
	default:
		panic("expr: unknown node in FillHoles")
	}
}

func substSlice(in []Expr, name string, v Value) ([]Expr, bool) {
	var out []Expr
	for i, a := range in {
		b, changed := subst(a, name, v)
		if changed && out == nil {
			out = make([]Expr, len(in))
			copy(out, in[:i])
		}
		if out != nil {
			out[i] = b
		}
	}
	if out == nil {
		return in, false
	}
	return out, true
}

func fillSlice(in []Expr, fills map[int]Value) ([]Expr, bool) {
	var out []Expr
	for i, a := range in {
		b, changed := fillHoles(a, fills)
		if changed && out == nil {
			out = make([]Expr, len(in))
			copy(out, in[:i])
		}
		if out != nil {
			out[i] = b
		}
	}
	if out == nil {
		return in, false
	}
	return out, true
}
