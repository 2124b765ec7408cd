// Package simdet checks that the discrete-event simulation packages
// stay deterministic: every §3 sweep is reproducible only if no model
// reads the wall clock, global randomness, or the process environment,
// and keeps no mutable package-level state. Violations inside the
// gated packages are reported; the real-clock shims in
// internal/blockdev opt out per line with `//lint:allow simdet`.
package simdet

import (
	"go/ast"
	"go/token"
	"strings"

	"seqstream/internal/analysis/framework"
)

// GatedPackages lists the import-path prefixes the analyzer applies
// to. A package is gated when its path equals a prefix or sits below
// it.
var GatedPackages = []string{
	"seqstream/internal/sim",
	"seqstream/internal/disk",
	"seqstream/internal/controller",
	"seqstream/internal/bus",
	"seqstream/internal/geom",
	"seqstream/internal/blockdev",
	// obs is deliberately clock-free (SpanLog takes an injected `now`
	// func), so simulation code can instrument without breaking
	// determinism; gate it to keep it that way.
	"seqstream/internal/obs",
	// flight records inside the simulation too: its Recorder takes an
	// injected `now` func, so the same discipline applies.
	"seqstream/internal/flight",
	// health runs over an injected blockdev.Clock so the engine ticks
	// deterministically under virtual time; keep wall clocks out.
	"seqstream/internal/health",
}

// forbiddenCalls maps import path -> function name -> the suggested
// replacement named in the diagnostic.
var forbiddenCalls = map[string]map[string]string{
	"time": {
		"Now":       "the engine clock (sim.Engine.Now)",
		"Since":     "engine-clock arithmetic",
		"Until":     "engine-clock arithmetic",
		"Sleep":     "sim.Engine.Schedule",
		"After":     "sim.Engine.Schedule",
		"Tick":      "sim.Engine.Schedule",
		"NewTimer":  "sim.Engine.Schedule",
		"NewTicker": "sim.Engine.Schedule",
		"AfterFunc": "sim.Engine.Schedule",
	},
	"os": {
		"Getenv":    "explicit configuration",
		"LookupEnv": "explicit configuration",
		"Environ":   "explicit configuration",
	},
}

// forbiddenImports are packages whose mere import breaks seeded
// reproducibility (global generator state).
var forbiddenImports = map[string]string{
	"math/rand":    "sim.Rand (seeded, per-model)",
	"math/rand/v2": "sim.Rand (seeded, per-model)",
}

// Analyzer is the simdet check.
var Analyzer = &framework.Analyzer{
	Name: "simdet",
	Doc: "forbid wall-clock time, global randomness, environment reads, " +
		"and package-level mutable state in the simulation packages",
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
	for _, f := range pass.Pkg.Files {
		imports := framework.FileImports(f)
		checkImports(pass, f)
		checkPackageVars(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			path, ok := imports[id.Name]
			if !ok {
				return true
			}
			if repl, bad := forbiddenCalls[path][sel.Sel.Name]; bad {
				pass.Reportf(call.Pos(), "%s.%s breaks simulation determinism; use %s",
					path, sel.Sel.Name, repl)
			}
			return true
		})
	}
	return nil
}

func checkImports(pass *framework.Pass, f *ast.File) {
	for _, im := range f.Imports {
		path := strings.Trim(im.Path.Value, `"`)
		if repl, bad := forbiddenImports[path]; bad {
			pass.Reportf(im.Pos(), "import of %s breaks simulation determinism; use %s", path, repl)
		}
	}
}

// checkPackageVars flags package-level var declarations: shared
// mutable state makes results depend on call order across models.
// Immutable sentinel errors (var ErrX = errors.New/fmt.Errorf) and
// blank compile-time assertions (var _ Iface = ...) are allowed.
func checkPackageVars(pass *framework.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || allowedVarSpec(vs) {
				continue
			}
			names := make([]string, len(vs.Names))
			for i, n := range vs.Names {
				names[i] = n.Name
			}
			pass.Reportf(vs.Pos(), "package-level mutable state (var %s) breaks simulation determinism; "+
				"keep model state inside the struct that owns it", strings.Join(names, ", "))
		}
	}
}

func allowedVarSpec(vs *ast.ValueSpec) bool {
	for i, name := range vs.Names {
		if name.Name == "_" {
			continue
		}
		if !strings.HasPrefix(name.Name, "Err") && !strings.HasPrefix(name.Name, "err") {
			return false
		}
		if i >= len(vs.Values) || !isErrorCtor(vs.Values[i]) {
			return false
		}
	}
	return true
}

// isErrorCtor reports whether e is errors.New(...) or fmt.Errorf(...).
func isErrorCtor(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return (id.Name == "errors" && sel.Sel.Name == "New") ||
		(id.Name == "fmt" && sel.Sel.Name == "Errorf")
}
