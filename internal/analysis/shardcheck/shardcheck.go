// Package shardcheck machine-checks the shard-ownership rules that
// internal/core/doc.go states in prose: struct fields annotated
//
//	streams map[int]*stream //lint:guardedby mu
//
// may only be accessed while the struct's named mutex is held. The
// analysis tracks must-hold lock sets through each function with the
// framework CFG: X.mu.Lock() adds X.mu, X.mu.Unlock() removes it,
// `defer X.mu.Unlock()` keeps it to the end, and joining paths keep
// only the locks held on every path. Functions whose contract is
// "caller holds the lock" declare it:
//
//	//lint:holds mu
//	func (sh *shard) pump(...) { ... }
//
// which seeds the receiver's mutex as held on entry. A method that is
// entered holding the lock and releases it before returning declares
//
//	//lint:releases mu
//	func (sh *shard) unlockAndFlush() { ... }
//
// which seeds the lock like holds, and a call statement sh.m(...) to
// it drops sh.mu from the caller's held set. Values still
// being constructed are exempt: a local built from a composite
// literal in the same function is not yet shared, so its guarded
// fields are free. Closures are independent flows (they usually run
// after the enclosing critical section); accesses inside them need
// their own locking or an //lint:allow shardcheck.
package shardcheck

import (
	"go/ast"
	"go/types"
	"strings"

	"seqstream/internal/analysis/framework"
)

// GatedPackages lists the import-path prefixes the analyzer applies to.
var GatedPackages = []string{
	"seqstream/internal/core",
	"seqstream/internal/netserve",
	"seqstream/internal/obs",
	"seqstream/internal/health",
}

// Analyzer is the shardcheck check.
var Analyzer = &framework.Analyzer{
	Name: "shardcheck",
	Doc: "enforce //lint:guardedby annotations: guarded struct fields are " +
		"only touched while the named mutex is held",
	NeedTypes: true,
	Run:       run,
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
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	releases := collectReleases(pass)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := make(lockSet)
			mu := framework.FuncAnnotation(fd, "holds")
			if mu == "" {
				mu = framework.FuncAnnotation(fd, "releases")
			}
			if recv := recvName(fd); mu != "" && recv != "" {
				held[recv+"."+mu] = true
			}
			analyzeBody(pass, guards, releases, fd.Body, held)
		}
		// Function literals run outside the lexical critical section
		// (callbacks, goroutines): they start with nothing held.
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				analyzeBody(pass, guards, releases, fl.Body, make(lockSet))
			}
			return true
		})
	}
	return nil
}

// collectGuards maps annotated struct fields to the name of the mutex
// field guarding them, reading //lint:guardedby comments off struct
// type declarations in this package.
func collectGuards(pass *framework.Pass) map[*types.Var]string {
	out := make(map[*types.Var]string)
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						out[v] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

// guardAnnotation extracts the mutex name from a field's
// `//lint:guardedby <mu>` doc or trailing comment.
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "lint:guardedby "); ok {
				name, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				return name
			}
		}
	}
	return ""
}

// collectReleases maps each //lint:releases method of this package to
// the receiver mutex it releases.
func collectReleases(pass *framework.Pass) map[*types.Func]string {
	out := make(map[*types.Func]string)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			if mu := framework.FuncAnnotation(fd, "releases"); mu != "" {
				if fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = mu
				}
			}
		}
	}
	return out
}

func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// lockSet is a must-hold set of rendered mutex expressions ("sh.mu").
type lockSet map[string]bool

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func (s lockSet) equal(other lockSet) bool {
	if len(s) != len(other) {
		return false
	}
	for k := range s {
		if !other[k] {
			return false
		}
	}
	return true
}

// intersect keeps only locks held on every path.
func intersect(sets []lockSet) lockSet {
	if len(sets) == 0 {
		return make(lockSet)
	}
	out := sets[0].clone()
	for _, s := range sets[1:] {
		for k := range out {
			if !s[k] {
				delete(out, k)
			}
		}
	}
	return out
}

type bodyAnalysis struct {
	pass     *framework.Pass
	guards   map[*types.Var]string
	releases map[*types.Func]string
	cfg      *framework.CFG
	// fresh holds locals constructed from composite literals in this
	// body: not yet shared, so their guarded fields are exempt.
	fresh map[*types.Var]bool
	// entry is the lock set seeded by a //lint:holds annotation.
	entry    lockSet
	reported map[string]bool
}

func analyzeBody(pass *framework.Pass, guards map[*types.Var]string, releases map[*types.Func]string, body *ast.BlockStmt, entry lockSet) {
	a := &bodyAnalysis{
		pass:     pass,
		guards:   guards,
		releases: releases,
		fresh:    make(map[*types.Var]bool),
		entry:    entry,
		reported: make(map[string]bool),
	}
	a.findFresh(body)
	a.cfg = framework.NewCFG(body)
	a.solve()
}

// findFresh records locals assigned a composite literal (or its
// address): values under construction, not yet visible to other
// goroutines.
func (a *bodyAnalysis) findFresh(body *ast.BlockStmt) {
	info := a.pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			e := rhs
			if un, ok := e.(*ast.UnaryExpr); ok {
				e = un.X
			}
			if _, ok := e.(*ast.CompositeLit); !ok {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if v, ok := info.Defs[id].(*types.Var); ok {
					a.fresh[v] = true
				}
			}
		}
		return true
	})
}

// solve runs the must-hold fixpoint over the CFG, then reports.
func (a *bodyAnalysis) solve() {
	blocks := a.cfg.Blocks
	preds := make(map[*framework.Block][]*framework.Block)
	for _, b := range blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	in := make(map[*framework.Block]lockSet, len(blocks))
	for _, b := range blocks {
		// Start optimistic (everything held) so the intersection
		// converges downward; entry starts from the annotation seed.
		in[b] = nil
	}
	in[a.cfg.Entry] = a.entry.clone()
	changed := true
	for rounds := 0; changed && rounds < 4*len(blocks)+8; rounds++ {
		changed = false
		for _, b := range blocks {
			if b == a.cfg.Entry {
				continue
			}
			var states []lockSet
			for _, p := range preds[b] {
				if in[p] == nil {
					continue // not yet reached: no constraint
				}
				states = append(states, a.apply(p, in[p], false))
			}
			if len(states) == 0 {
				continue
			}
			st := intersect(states)
			if in[b] == nil || !st.equal(in[b]) {
				in[b] = st
				changed = true
			}
		}
	}
	for _, b := range blocks {
		if in[b] == nil {
			in[b] = make(lockSet) // unreachable: check pessimistically
		}
		a.apply(b, in[b], true)
	}
}

// apply runs one block's transfer function; with report set it flags
// guarded-field accesses outside their mutex.
func (a *bodyAnalysis) apply(b *framework.Block, held lockSet, report bool) lockSet {
	held = held.clone()
	for _, n := range b.Nodes {
		// Lock-state transitions: a deferred unlock keeps the lock held
		// to function exit, so it is no transition at all.
		if d, ok := n.(*ast.DeferStmt); ok {
			if key, _ := lockCall(d.Call); key != "" {
				continue
			}
			if report {
				a.checkNode(n, held) // defer args are evaluated here
			}
			continue
		}
		if es, ok := n.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if key, op := lockCall(call); key != "" {
					switch op {
					case "Lock", "RLock":
						held[key] = true
					case "Unlock", "RUnlock":
						delete(held, key)
					}
					continue
				}
				if key := a.releasedBy(call); key != "" {
					if report {
						a.checkNode(n, held) // receiver and args are evaluated held
					}
					delete(held, key)
					continue
				}
			}
		}
		if report {
			a.checkNode(n, held)
		}
	}
	return held
}

// releasedBy returns the lock a call X.m(...) to a //lint:releases
// method releases ("X.mu"), or "".
func (a *bodyAnalysis) releasedBy(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := a.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	mu := a.releases[fn]
	base := exprKey(sel.X)
	if mu == "" || base == "" {
		return ""
	}
	return base + "." + mu
}

// checkNode reports guarded-field selectors not covered by held.
func (a *bodyAnalysis) checkNode(n ast.Node, held lockSet) {
	info := a.pass.Pkg.Info
	ast.Inspect(n, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false // separate flow
		}
		sel, ok := nd.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		fv, ok := s.Obj().(*types.Var)
		if !ok {
			return true
		}
		mu, guarded := a.guards[fv]
		if !guarded {
			return true
		}
		base := exprKey(sel.X)
		if base == "" {
			return true // complex base: out of the model, under-report
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && a.fresh[v] {
				return true // still under construction
			}
		}
		if !held[base+"."+mu] {
			key := a.pass.Fset().Position(sel.Pos()).String() + fv.Name()
			if !a.reported[key] {
				a.reported[key] = true
				a.pass.Reportf(sel.Pos(), "access to %s.%s without holding %s.%s (//lint:guardedby)", base, fv.Name(), base, mu)
			}
		}
		return true
	})
}

// lockCall matches X.Lock/RLock/Unlock/RUnlock() and returns the
// rendered lock expression and method.
func lockCall(call *ast.CallExpr) (key, op string) {
	if len(call.Args) != 0 {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return exprKey(sel.X), sel.Sel.Name
	}
	return "", ""
}

// exprKey renders a simple expression ("sh.mu"); anything complex
// yields "".
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
