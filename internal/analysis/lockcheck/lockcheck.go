// Package lockcheck flags mutexes held across blocking operations and
// return paths that leak a held lock, in the concurrent server
// packages (internal/core, internal/netserve). It goes beyond go
// vet's copylocks: the scheduler's contract is that completion
// callbacks never run under the server lock and that no lock is held
// across a channel operation, time.Sleep, or Wait — any of which can
// deadlock the dispatch path under load.
//
// The check is syntactic and flow-approximate: it tracks Lock/Unlock
// pairs per lock expression ("s.mu") through straight-line code and
// branches. Branches that diverge in lock state make the state
// unknown, which suppresses further reports rather than guessing
// (false positives can be silenced with //lint:allow lockcheck).
//
// A method whose doc comment carries `//lint:releases mu` is entered
// with its receiver's mu held and returns with it released; a call
// statement X.m(...) to such a method (matched by name within the
// package) counts as X.mu.Unlock().
package lockcheck

import (
	"go/ast"
	"go/token"
	"strings"

	"seqstream/internal/analysis/framework"
)

// GatedPackages lists the import-path prefixes the analyzer applies to.
var GatedPackages = []string{
	"seqstream/internal/core",
	"seqstream/internal/netserve",
	"seqstream/internal/health",
}

// Analyzer is the lockcheck check.
var Analyzer = &framework.Analyzer{
	Name: "lockcheck",
	Doc: "flag mutexes held across channel operations, sleeps, and Waits, " +
		"and return paths that miss an Unlock",
	Run: run,
}

func gated(path string) bool {
	for _, p := range GatedPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) error {
	if !gated(pass.Pkg.Path) {
		return nil
	}
	releases := make(map[string]string)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				if mu := framework.FuncAnnotation(fd, "releases"); mu != "" {
					releases[fd.Name.Name] = mu
				}
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		imports := framework.FileImports(f)
		c := &checker{pass: pass, imports: imports, releases: releases}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				c.stmts(fd.Body.List, lockState{})
			}
		}
	}
	return nil
}

// lockInfo tracks one lock expression within one flow path.
type lockInfo struct {
	// held: the lock is taken (a blocking operation now is a bug).
	held bool
	// needs: a return now leaks the lock (cleared by Unlock or a
	// deferred Unlock).
	needs bool
}

type lockState map[string]*lockInfo

func (st lockState) clone() lockState {
	out := make(lockState, len(st))
	for k, v := range st {
		cp := *v
		out[k] = &cp
	}
	return out
}

func (st lockState) get(key string) *lockInfo {
	li := st[key]
	if li == nil {
		li = &lockInfo{}
		st[key] = li
	}
	return li
}

// anyHeld returns the rendering of one held lock, or "".
func (st lockState) anyHeld() string {
	for k, v := range st {
		if v.held {
			return k
		}
	}
	return ""
}

type checker struct {
	pass    *framework.Pass
	imports map[string]string
	// releases maps a //lint:releases method name to the receiver
	// mutex it releases.
	releases map[string]string
}

// stmts analyzes a statement list, mutating st, and reports whether
// control cannot continue past it (ends in return/branch/panic).
func (c *checker) stmts(list []ast.Stmt, st lockState) bool {
	terminated := false
	for _, s := range list {
		if c.stmt(s, st) {
			terminated = true
		}
	}
	return terminated
}

func (c *checker) stmt(s ast.Stmt, st lockState) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, op, ok := lockCall(s.X); ok {
			li := st.get(key)
			switch op {
			case "Lock", "RLock":
				li.held, li.needs = true, true
			case "Unlock", "RUnlock":
				li.held, li.needs = false, false
			}
			return false
		}
		term := c.expr(s.X, st)
		if key := c.releasedBy(s.X); key != "" {
			li := st.get(key)
			li.held, li.needs = false, false
		}
		return term
	case *ast.SendStmt:
		if held := st.anyHeld(); held != "" {
			c.pass.Reportf(s.Pos(), "channel send while %s is held; release the lock before blocking", held)
		}
		c.expr(s.Value, st)
		return false
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e, st)
		}
		return false
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				c.stmts(fl.Body.List, lockState{})
				return false
			}
			return true
		})
		return false
	case *ast.DeferStmt:
		if key, op, ok := lockCall(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			st.get(key).needs = false
			return false
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.stmts(fl.Body.List, lockState{})
		}
		return false
	case *ast.GoStmt:
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.stmts(fl.Body.List, lockState{})
		}
		return false
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e, st)
		}
		for key, li := range st {
			if li.needs {
				c.pass.Reportf(s.Pos(), "return while %s is held: missing %s.Unlock() on this path", key, key)
			}
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, st)
	case *ast.BlockStmt:
		return c.stmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		c.expr(s.Cond, st)
		bodySt := st.clone()
		bodyTerm := c.stmts(s.Body.List, bodySt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.stmt(s.Else, elseSt)
		}
		mergeBranches(st, []branch{{bodySt, bodyTerm}, {elseSt, elseTerm}})
		return bodyTerm && elseTerm && s.Else != nil
	case *ast.ForStmt:
		c.loopBody(s.Body, st, s.Init, s.Cond, s.Post)
		return false
	case *ast.RangeStmt:
		c.expr(s.X, st)
		c.loopBody(s.Body, st, nil, nil, nil)
		return false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		c.clauses(s, st)
		return false
	case *ast.SelectStmt:
		if held := st.anyHeld(); held != "" && hasCommClause(s) {
			c.pass.Reportf(s.Pos(), "select with channel cases while %s is held; release the lock before blocking", held)
		}
		c.clauses(s, st)
		return false
	default:
		return false
	}
}

type branch struct {
	st   lockState
	term bool
}

// mergeBranches folds branch outcomes back into st. Branches that
// terminated do not rejoin the flow; surviving branches that disagree
// with each other make the key unknown (held=false, needs=false), so
// the analysis under-reports rather than guessing.
func mergeBranches(st lockState, branches []branch) {
	keys := map[string]bool{}
	for k := range st {
		keys[k] = true
	}
	for _, b := range branches {
		for k := range b.st {
			keys[k] = true
		}
	}
	for k := range keys {
		var live []*lockInfo
		for _, b := range branches {
			if !b.term {
				live = append(live, b.st.get(k))
			}
		}
		if len(live) == 0 {
			continue // all branches exited; parent state stands
		}
		first := *live[0]
		agree := true
		for _, li := range live[1:] {
			if *li != first {
				agree = false
				break
			}
		}
		target := st.get(k)
		if agree {
			*target = first
		} else {
			target.held, target.needs = false, false
		}
	}
}

// loopBody analyzes a loop body on a cloned state; a body that changes
// lock state makes the post-loop state unknown.
func (c *checker) loopBody(body *ast.BlockStmt, st lockState, init ast.Stmt, cond ast.Expr, post ast.Stmt) {
	if init != nil {
		c.stmt(init, st)
	}
	if cond != nil {
		c.expr(cond, st)
	}
	bodySt := st.clone()
	c.stmts(body.List, bodySt)
	if post != nil {
		c.stmt(post, bodySt)
	}
	mergeBranches(st, []branch{{bodySt, false}, {st.clone(), false}})
}

// clauses analyzes the case bodies of a switch or select.
func (c *checker) clauses(s ast.Stmt, st lockState) {
	var bodies [][]ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		if s.Tag != nil {
			c.expr(s.Tag, st)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
	}
	branches := []branch{{st.clone(), false}} // the no-case-taken path
	for _, body := range bodies {
		bSt := st.clone()
		term := c.stmts(body, bSt)
		branches = append(branches, branch{bSt, term})
	}
	mergeBranches(st, branches)
}

// expr scans an expression for blocking operations performed while a
// lock is held. Function literals are analyzed as independent flows.
func (c *checker) expr(e ast.Expr, st lockState) bool {
	if e == nil {
		return false
	}
	terminated := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.stmts(n.Body.List, lockState{})
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if held := st.anyHeld(); held != "" {
					c.pass.Reportf(n.Pos(), "channel receive while %s is held; release the lock before blocking", held)
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				terminated = true
			}
			if held := st.anyHeld(); held != "" {
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && c.imports[id.Name] == "time" && sel.Sel.Name == "Sleep" {
						c.pass.Reportf(n.Pos(), "time.Sleep while %s is held; release the lock before blocking", held)
					} else if sel.Sel.Name == "Wait" && len(n.Args) == 0 {
						c.pass.Reportf(n.Pos(), "%s.Wait() while %s is held; release the lock before blocking",
							exprKey(sel.X), held)
					}
				}
			}
		}
		return true
	})
	return terminated
}

// releasedBy returns the lock a call X.m(...) to a //lint:releases
// method releases ("X.mu"), or "".
func (c *checker) releasedBy(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	mu := c.releases[sel.Sel.Name]
	base := exprKey(sel.X)
	if mu == "" || base == "" {
		return ""
	}
	return base + "." + mu
}

// lockCall reports whether e is a call X.Lock/RLock/Unlock/RUnlock()
// and returns the rendered lock expression X and the method name.
func lockCall(e ast.Expr) (key, op string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		key = exprKey(sel.X)
		if key == "" {
			return "", "", false
		}
		return key, sel.Sel.Name, true
	}
	return "", "", false
}

// exprKey renders a lock expression ("s.mu"); non-trivial expressions
// yield "" and are ignored.
func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(e.X)
	default:
		return ""
	}
}

func hasCommClause(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
			return true
		}
	}
	return false
}
