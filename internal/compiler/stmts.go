package compiler

import (
	"fmt"

	"repro/internal/indus/ast"
	"repro/internal/indus/token"
	"repro/internal/pipeline"
)

func (c *compilerState) compileStmts(stmts []ast.Stmt) ([]pipeline.Op, error) {
	var ops []pipeline.Op
	for _, s := range stmts {
		sOps, err := c.compileStmt(s)
		if err != nil {
			return nil, err
		}
		ops = append(ops, sOps...)
	}
	return ops, nil
}

func (c *compilerState) compileStmt(s ast.Stmt) ([]pipeline.Op, error) {
	switch s := s.(type) {
	case *ast.Block:
		return c.compileStmts(s.Stmts)

	case *ast.Pass:
		return nil, nil

	case *ast.Reject:
		return []pipeline.Op{pipeline.AssignOp{
			Dst: pipeline.FieldReject, DstWidth: 1, Src: pipeline.C(1, 1),
		}}, nil

	case *ast.Report:
		var ops []pipeline.Op
		var args []pipeline.Expr
		for _, a := range s.Args {
			// Tuples flatten into the digest.
			if tup, ok := a.(*ast.Tuple); ok {
				for _, el := range tup.Elems {
					prelude, ex, err := c.compileExpr(el)
					if err != nil {
						return nil, err
					}
					ops = append(ops, prelude...)
					args = append(args, ex)
				}
				continue
			}
			prelude, ex, err := c.compileExpr(a)
			if err != nil {
				return nil, err
			}
			ops = append(ops, prelude...)
			args = append(args, ex)
		}
		return append(ops, pipeline.ReportOp{Args: args}), nil

	case *ast.Assign:
		return c.compileAssign(s)

	case *ast.If:
		prelude, cond, err := c.compileExpr(s.Cond)
		if err != nil {
			return nil, err
		}
		thenOps, err := c.compileStmts(s.Then.Stmts)
		if err != nil {
			return nil, err
		}
		var elseOps []pipeline.Op
		if s.Else != nil {
			elseOps, err = c.compileStmt(s.Else)
			if err != nil {
				return nil, err
			}
		}
		return append(prelude, pipeline.IfOp{Cond: cond, Then: thenOps, Else: elseOps}), nil

	case *ast.For:
		return c.compileFor(s)

	case *ast.ExprStmt:
		m := s.X.(*ast.Method) // parser guarantees push
		return c.compilePush(m)

	default:
		return nil, fmt.Errorf("%s: compiler: unknown statement %T", s.Position(), s)
	}
}

func (c *compilerState) compileAssign(s *ast.Assign) ([]pipeline.Op, error) {
	switch lhs := s.LHS.(type) {
	case *ast.Ident:
		sym := c.syms[lhs.Name]
		if sym == nil {
			return nil, fmt.Errorf("%s: compiler: assignment to unknown variable %q", s.Pos, lhs.Name)
		}
		return c.compileAssignTo(sym, nil, s.Op, s.RHS)

	case *ast.Index:
		base, ok := lhs.X.(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("%s: compiler: unsupported assignment target", s.Pos)
		}
		sym := c.syms[base.Name]
		if sym == nil {
			return nil, fmt.Errorf("%s: compiler: assignment to unknown variable %q", s.Pos, base.Name)
		}
		return c.compileAssignTo(sym, lhs.Idx, s.Op, s.RHS)
	}
	return nil, fmt.Errorf("%s: compiler: invalid assignment target", s.Pos)
}

// compileAssignTo emits the ops for an assignment (plain or compound) to
// sym, optionally through an index expression.
func (c *compilerState) compileAssignTo(sym *symbol, index ast.Expr, op token.Kind, rhs ast.Expr) ([]pipeline.Op, error) {
	prelude, rhsX, err := c.compileExpr(rhs)
	if err != nil {
		return nil, err
	}

	d := sym.decl
	switch d.Kind {
	case ast.KindTele:
		switch t := d.Type.(type) {
		case ast.ArrayType:
			if index == nil {
				return nil, fmt.Errorf("compiler: whole-array assignment to %q is not supported", d.Name)
			}
			idxPrelude, idxX, err := c.compileExpr(index)
			if err != nil {
				return nil, err
			}
			prelude = append(prelude, idxPrelude...)
			elemW := widthOf(t.Elem)
			if op != token.ASSIGN {
				cur := c.arraySlotRead(sym.base, t, index, idxX)
				rhsX = pipeline.Bin{Op: compoundOp(op), X: cur, Y: rhsX}
			}
			return append(prelude, pipeline.SetSlotOp{
				Base: sym.base, ElemWidth: elemW, Cap: t.Len, Index: idxX, Src: rhsX,
			}), nil

		default:
			w := widthOf(d.Type)
			dst := pipeline.FieldRef(sym.base)
			if op != token.ASSIGN {
				rhsX = pipeline.Bin{Op: compoundOp(op), X: pipeline.Field{Ref: dst, Width: w}, Y: rhsX}
			}
			return append(prelude, pipeline.AssignOp{Dst: dst, DstWidth: w, Src: rhsX}), nil
		}

	case ast.KindSensor:
		var idxX pipeline.Expr = pipeline.C(32, 0)
		var elemW int
		switch t := d.Type.(type) {
		case ast.ArrayType:
			if index == nil {
				return nil, fmt.Errorf("compiler: whole-array assignment to sensor %q is not supported", d.Name)
			}
			var idxPrelude []pipeline.Op
			idxPrelude, idxX, err = c.compileExpr(index)
			if err != nil {
				return nil, err
			}
			prelude = append(prelude, idxPrelude...)
			elemW = widthOf(t.Elem)
		default:
			elemW = widthOf(d.Type)
		}
		if op != token.ASSIGN {
			tmp := c.newTemp(elemW)
			prelude = append(prelude, pipeline.RegReadOp{Reg: sym.register, Index: idxX, Dst: tmp.Ref, Width: elemW})
			rhsX = pipeline.Bin{Op: compoundOp(op), X: tmp, Y: rhsX}
		}
		return append(prelude, pipeline.RegWriteOp{Reg: sym.register, Index: idxX, Src: rhsX}), nil
	}
	return nil, fmt.Errorf("compiler: assignment to read-only %s variable %q", d.Kind, d.Name)
}

func compoundOp(op token.Kind) pipeline.OpCode {
	if op == token.PLUSASSIGN {
		return pipeline.OpAdd
	}
	return pipeline.OpSub
}

// compileFor fully unrolls a (possibly multi-variable) for loop over the
// static array capacity; each iteration is guarded by validity tests on
// the arrays' counts (§4.1: "the loop body is executed for each list
// index that is valid"). A loop iterates the arrays as they were when
// it started, so when the body pushes to or assigns into an array it
// iterates, that array's count and elements are first copied into
// temps and the iterations read the copies.
func (c *compilerState) compileFor(s *ast.For) ([]pipeline.Op, error) {
	type seqInfo struct {
		base  string
		elemW int
		cap   int
	}
	seqs := make([]seqInfo, len(s.Seqs))
	for i, q := range s.Seqs {
		id, ok := q.(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("%s: compiler: for sequences must be array variables", s.Pos)
		}
		sym := c.syms[id.Name]
		if sym == nil || sym.decl.Kind != ast.KindTele {
			return nil, fmt.Errorf("%s: compiler: for sequence %q must be a tele array", s.Pos, id.Name)
		}
		at, ok := sym.decl.Type.(ast.ArrayType)
		if !ok {
			return nil, fmt.Errorf("%s: compiler: for sequence %q is not an array", s.Pos, id.Name)
		}
		seqs[i] = seqInfo{base: sym.base, elemW: widthOf(at.Elem), cap: at.Len}
	}

	// Bind loop variables to fresh temps for the body compilation.
	temps := make([]pipeline.Field, len(s.Vars))
	saved := make(map[string]pipeline.Field)
	for i, name := range s.Vars {
		temps[i] = c.newTemp(seqs[i].elemW)
		if prev, ok := c.loopVars[name]; ok {
			saved[name] = prev
		}
		c.loopVars[name] = temps[i]
	}
	body, err := c.compileStmts(s.Body.Stmts)
	for _, name := range s.Vars {
		if prev, ok := saved[name]; ok {
			c.loopVars[name] = prev
		} else {
			delete(c.loopVars, name)
		}
	}
	if err != nil {
		return nil, err
	}

	n := seqs[0].cap
	for _, q := range seqs {
		if q.cap < n {
			n = q.cap
		}
	}
	var ops []pipeline.Op
	counts := make([]pipeline.Expr, len(seqs))
	slots := make([][]pipeline.Field, len(seqs))
	for j, q := range seqs {
		counts[j] = pipeline.Field{Ref: pipeline.ArrayCount(q.base), Width: 8}
		slots[j] = make([]pipeline.Field, n)
		for i := range slots[j] {
			slots[j][i] = pipeline.Field{Ref: pipeline.ArraySlot(q.base, i), Width: q.elemW}
		}
		if !writesArray(body, q.base) {
			continue
		}
		cnt := c.newTemp(8)
		ops = append(ops, pipeline.AssignOp{Dst: cnt.Ref, DstWidth: 8, Src: counts[j]})
		counts[j] = cnt
		for i, slot := range slots[j] {
			snap := c.newTemp(q.elemW)
			ops = append(ops, pipeline.AssignOp{Dst: snap.Ref, DstWidth: q.elemW, Src: slot})
			slots[j][i] = snap
		}
	}
	for i := 0; i < n; i++ {
		var cond pipeline.Expr
		for j := range seqs {
			test := pipeline.Bin{
				Op: pipeline.OpLt,
				X:  pipeline.C(8, uint64(i)),
				Y:  counts[j],
			}
			if cond == nil {
				cond = test
			} else {
				cond = pipeline.Bin{Op: pipeline.OpLAnd, X: cond, Y: test}
			}
		}
		iter := make([]pipeline.Op, 0, len(s.Vars)+len(body))
		for j, q := range seqs {
			iter = append(iter, pipeline.AssignOp{
				Dst:      temps[j].Ref,
				DstWidth: q.elemW,
				Src:      slots[j][i],
			})
		}
		iter = append(iter, body...)
		ops = append(ops, pipeline.IfOp{Cond: cond, Then: iter})
	}
	return ops, nil
}

// writesArray reports whether ops, at any nesting depth, push to or
// assign into the tele array base.
func writesArray(ops []pipeline.Op, base string) bool {
	for _, op := range ops {
		switch op := op.(type) {
		case pipeline.PushOp:
			if op.Base == base {
				return true
			}
		case pipeline.SetSlotOp:
			if op.Base == base {
				return true
			}
		case pipeline.IfOp:
			if writesArray(op.Then, base) || writesArray(op.Else, base) {
				return true
			}
		}
	}
	return false
}

func (c *compilerState) compilePush(m *ast.Method) ([]pipeline.Op, error) {
	id := m.Recv.(*ast.Ident)
	sym := c.syms[id.Name]
	at := sym.decl.Type.(ast.ArrayType)
	prelude, src, err := c.compileExpr(m.Args[0])
	if err != nil {
		return nil, err
	}
	return append(prelude, pipeline.PushOp{
		Base: sym.base, ElemWidth: widthOf(at.Elem), Cap: at.Len, Src: src,
	}), nil
}
