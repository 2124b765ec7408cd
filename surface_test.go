package seqstream_test

// The surface test holds the module to one rule: every exported name
// declared in a non-test file has a production caller, or is listed in
// testdata/surface_allowlist.txt with the reason it stays. It works on
// names, not types (go/parser and go/ast only, no subprocess):
//
//   - a package-level func, type, const or var is referenced by its bare
//     name from a non-test file of its own directory, or as pkg.Name from
//     a non-test file that imports its package;
//   - a method is referenced by any selector .Name in a non-test file
//     that is not a qualified package reference.
//
// Files under benchmark/, cmd/ and examples/ count as callers.
// Declarations under benchmark/ are frozen and out of scope. Test files,
// testdata/ and dot-directories (benchmark/.build holds a Go cache) are
// skipped.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const surfaceAllowlist = "testdata/surface_allowlist.txt"

// allowReasons are the reasons an exported name may stay without a
// production caller.
var allowReasons = []string{"test support:", "interface:", "wire value"}

// surfaceDecl is one exported declaration: dir is the package directory
// relative to the module root, name is Name or Recv.Name.
type surfaceDecl struct {
	dir, name string
	method    string // method name when the declaration is a method
	pos       token.Position
}

func (d surfaceDecl) key() string { return d.dir + " " + d.name }

// where is d's file:line.
func (d surfaceDecl) where() string { return fmt.Sprintf("%s:%d", d.pos.Filename, d.pos.Line) }

// surfaceRefs is every reference the non-test files make.
type surfaceRefs struct {
	bare      map[string]bool // "dir Name" referenced by bare identifier
	qualified map[string]bool // "importpath.Name" referenced through an import
	selectors map[string]bool // "Name" used as an unqualified selector
}

func TestExportedSurfaceHasCallers(t *testing.T) {
	module := readModulePath(t)
	fset := token.NewFileSet()
	var decls []surfaceDecl
	refs := surfaceRefs{bare: map[string]bool{}, qualified: map[string]bool{}, selectors: map[string]bool{}}

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		if dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/") {
			decls = append(decls, exportedDecls(fset, dir, f)...)
		}
		collectRefs(dir, f, &refs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	allow := readAllowlist(t)
	var offenders []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key()] = true
		if referenced(d, module, refs) {
			if _, ok := allow[d.key()]; ok {
				offenders = append(offenders, fmt.Sprintf("%s %s: referenced from non-test code; drop it from %s", d.where(), d.name, surfaceAllowlist))
			}
			continue
		}
		if _, ok := allow[d.key()]; !ok {
			offenders = append(offenders, fmt.Sprintf("%s %s: exported, but no non-test file references it", d.where(), d.name))
		}
	}
	for key, line := range allow {
		if !seen[key] {
			offenders = append(offenders, fmt.Sprintf("%s:%d %s: allowlist entry matches no declaration", surfaceAllowlist, line, key))
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Error(o)
	}
	if len(offenders) > 0 {
		t.Logf("delete each unreferenced name, give it a production caller, or list it in %s with a reason starting %q",
			surfaceAllowlist, allowReasons)
	}
}

// referenced reports whether non-test code names d anywhere but at its
// own declaration.
func referenced(d surfaceDecl, module string, refs surfaceRefs) bool {
	if d.method != "" {
		return refs.selectors[d.method]
	}
	importPath := module
	if d.dir != "." {
		importPath = module + "/" + d.dir
	}
	return refs.bare[d.key()] || refs.qualified[importPath+"."+d.name]
}

func exportedDecls(fset *token.FileSet, dir string, f *ast.File) []surfaceDecl {
	var out []surfaceDecl
	add := func(id *ast.Ident, name, method string) {
		out = append(out, surfaceDecl{dir: dir, name: name, method: method, pos: fset.Position(id.Pos())})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() {
				continue
			}
			if decl.Recv == nil {
				add(decl.Name, decl.Name.Name, "")
				continue
			}
			add(decl.Name, receiverName(decl.Recv.List[0].Type)+"."+decl.Name.Name, decl.Name.Name)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						add(spec.Name, spec.Name.Name, "")
					}
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.IsExported() {
							add(id, id.Name, "")
						}
					}
				}
			}
		}
	}
	return out
}

func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", expr)
		}
	}
}

// collectRefs adds every identifier f uses, other than the names it
// declares, to refs.
func collectRefs(dir string, f *ast.File, refs *surfaceRefs) {
	imports := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	declared := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			declared[decl.Name] = true
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declared[spec.Name] = true
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						declared[id] = true
					}
				}
			}
		}
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					refs.qualified[p+"."+n.Sel.Name] = true
					return false
				}
			}
			refs.selectors[n.Sel.Name] = true
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !declared[n] {
				refs.bare[dir+" "+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

func readModulePath(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("go.mod has no module line")
	return ""
}

// readAllowlist parses lines of the form "<dir> <Name or Recv.Name> <reason>"
// and returns each entry's line number by key. Blank lines and lines
// starting with # are skipped.
func readAllowlist(t *testing.T) map[string]int {
	t.Helper()
	f, err := os.Open(surfaceAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]int{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.SplitN(text, " ", 3)
		if len(fields) < 3 || !hasAllowReason(strings.TrimSpace(fields[2])) {
			t.Errorf("%s:%d: want \"<dir> <name> <reason>\" with a reason starting %q", surfaceAllowlist, line, allowReasons)
			continue
		}
		key := fields[0] + " " + fields[1]
		if prev, dup := allow[key]; dup {
			t.Errorf("%s:%d: %s already listed at line %d", surfaceAllowlist, line, key, prev)
		}
		allow[key] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// hasAllowReason reports whether reason starts with one of
// allowReasons, with a non-empty detail after a colon-ended one.
func hasAllowReason(reason string) bool {
	for _, r := range allowReasons {
		if rest, ok := strings.CutPrefix(reason, r); ok && (!strings.HasSuffix(r, ":") || strings.TrimSpace(rest) != "") {
			return true
		}
	}
	return false
}
