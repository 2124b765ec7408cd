// Package framework is a self-contained static-analysis harness
// modeled on golang.org/x/tools/go/analysis (which this module cannot
// depend on): an Analyzer runs over one package's syntax and reports
// Diagnostics. It exists so the repo can enforce simulator determinism
// and scheduler invariants mechanically (see internal/analysis/simdet,
// lockcheck, unitcheck and cmd/lint).
//
// Suppression: a diagnostic is dropped when the line it points at, or
// the line above it, carries a comment of the form
//
//	//lint:allow <name>[,<name>...] [reason]
//
// naming the analyzer. The escape hatch is for code that is outside an
// analyzer's model (for example the real-clock shims in
// internal/blockdev, which legitimately read the wall clock).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow
	// comments. It must be a single lowercase word.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// NeedTypes requests type-checked packages: Run sees Pkg.Types and
	// Pkg.Info populated (and fails the whole run if the code does not
	// type-check).
	NeedTypes bool
	// Run inspects a package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one loaded package: parsed files plus identity.
type Package struct {
	// Path is the import path ("seqstream/internal/sim").
	Path string
	// Name is the package name ("sim").
	Name string
	// Dir is the directory the files were read from.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Fset positions all Files.
	Fset *token.FileSet
	// Types and Info carry the go/types view of the package. They are
	// nil until TypeCheck runs (Run does so when any analyzer sets
	// NeedTypes).
	Types *types.Package
	Info  *types.Info
}

// Index resolves import paths to loaded packages, so analyzers can
// look across package boundaries (syntactically).
type Index struct {
	byPath map[string]*Package
}

// NewIndex builds an index over the given packages.
func NewIndex(pkgs []*Package) *Index {
	ix := &Index{byPath: make(map[string]*Package, len(pkgs))}
	for _, p := range pkgs {
		ix.byPath[p.Path] = p
	}
	return ix
}

// Package returns the loaded package with the given import path, or
// nil when it was not part of the load.
func (ix *Index) Package(path string) *Package {
	if ix == nil {
		return nil
	}
	return ix.byPath[path]
}

// FuncDecl returns the declaration of a top-level function in the
// package with the given import path, or nil.
func (ix *Index) FuncDecl(path, name string) *ast.FuncDecl {
	p := ix.Package(path)
	if p == nil {
		return nil
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Index spans every package of the load (nil in narrow tests).
	Index *Index

	diags []Diagnostic
}

// Fset returns the file set positioning the package.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FileImports maps the local names of a file's imports to their import
// paths ("rand" -> "math/rand", aliases respected).
func FileImports(f *ast.File) map[string]string {
	out := make(map[string]string, len(f.Imports))
	for _, im := range f.Imports {
		path := strings.Trim(im.Path.Value, `"`)
		name := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		}
		if im.Name != nil {
			name = im.Name.Name
		}
		if name == "_" || name == "." {
			continue
		}
		out[name] = path
	}
	return out
}

// FuncAnnotation returns the first word after `//lint:<verb> ` in a
// function's doc comment ("mu" for `//lint:holds mu`), or "".
func FuncAnnotation(fd *ast.FuncDecl, verb string) string {
	if fd.Doc == nil {
		return ""
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, "lint:"+verb+" "); ok {
			name, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
			return name
		}
	}
	return ""
}

// Run executes analyzers over packages and returns the surviving
// diagnostics sorted by position. //lint:allow suppression is applied
// here so every analyzer gets it uniformly.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	for _, a := range analyzers {
		if a.NeedTypes {
			if err := TypeCheck(pkgs); err != nil {
				return nil, err
			}
			break
		}
	}
	ix := NewIndex(pkgs)
	var out []Diagnostic
	for _, pkg := range pkgs {
		allowed := allowLines(pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Index: ix}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if allowed[allowKey{d.Pos.Filename, d.Pos.Line, a.Name}] {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowLines collects the (file, line, analyzer) triples suppressed by
// //lint:allow comments. A comment covers its own line and the line
// below it, so both trailing and preceding placements work.
func allowLines(pkg *Package) map[allowKey]bool {
	out := make(map[allowKey]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "lint:allow"))
				names, _, _ := strings.Cut(rest, " ")
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					out[allowKey{pos.Filename, pos.Line, name}] = true
					out[allowKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return out
}
