package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Load parses and type-checks every non-test package of the module
// rooted at dir (the directory holding go.mod). Only the standard
// library and the module's own packages may be imported — by design the
// module carries no external dependencies, and the loader enforces it:
// an import outside both has no standard-library export data (see
// exportImporter), so type-checking the importing package fails.
//
// Directories named "testdata", hidden directories, and directories
// without non-test Go files are skipped, as are files whose //go:build
// constraint is not satisfied for this host (see fileExcluded).
func Load(dir string) (*Module, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	dirOf := map[string]string{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		dirOf[imp] = path
		return nil
	})
	if err != nil {
		return nil, err
	}

	l, err := newLoader(root, dirOf)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(dirOf))
	for p := range dirOf {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	mod := &Module{Path: modPath, Dir: root}
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			return nil, err
		}
		mod.Packages = append(mod.Packages, pkg)
	}
	return mod, nil
}

// LoadDir parses and type-checks a single standalone directory of Go
// files (test fixtures) under the given import path. Imports resolve
// against the standard library only.
func LoadDir(dir, importPath string) (*Package, error) {
	l, err := newLoader(dir, map[string]string{importPath: dir})
	if err != nil {
		return nil, err
	}
	return l.load(importPath)
}

// newLoader prepares a loader for the packages in dirOf, resolving
// every other import from the toolchain's export data.
func newLoader(dir string, dirOf map[string]string) (*loader, error) {
	fset := token.NewFileSet()
	std, err := exportImporter(fset, dir, dirOf)
	if err != nil {
		return nil, err
	}
	return &loader{
		fset:    fset,
		std:     std,
		dirOf:   dirOf,
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// exportImporter returns the importer for the imports of dirOf's files
// that lie outside dirOf: the gc importer over the compiled export data
// of the standard library, located by a single `go list -export` call
// (run in dir) over exactly those paths, so a load type-checks only
// the module's own code from source. A path that is not in the
// standard library gets no export data, so importing it fails with an
// error that names it.
func exportImporter(fset *token.FileSet, dir string, dirOf map[string]string) (types.Importer, error) {
	seen := map[string]bool{}
	var paths []string
	for _, pkgDir := range dirOf {
		names, err := goFileNames(pkgDir)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(pkgDir, name), nil, parser.ImportsOnly|parser.ParseComments)
			if err != nil {
				return nil, err
			}
			if fileExcluded(f) {
				continue
			}
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value) // the parser checked the literal
				if _, local := dirOf[path]; local || path == "unsafe" || seen[path] {
					continue
				}
				seen[path] = true
				paths = append(paths, path)
			}
		}
	}
	exports := map[string]string{}
	if len(paths) > 0 {
		sort.Strings(paths)
		// -e lists an unresolvable path instead of failing the whole
		// call; it is left out of exports below, and the import of it
		// fails in the type checker with its name.
		args := append([]string{"list", "-e", "-export", "-f", "{{if .Standard}}{{.ImportPath}}\t{{.Export}}{{end}}"}, paths...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %w: %s", err, stderr.String())
		}
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
				exports[path] = file
			}
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("%s is neither in the standard library nor in the module", path)
		}
		return os.Open(file)
	}), nil
}

type loader struct {
	fset    *token.FileSet
	std     types.Importer
	dirOf   map[string]string // module import path → directory
	pkgs    map[string]*Package
	loading map[string]bool
}

// Import implements types.Importer: module-local packages are
// type-checked from source recursively, everything else is delegated to
// the standard-library export-data importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirOf[path]; ok {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirOf[path]
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if fileExcluded(f) {
			continue
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("%s: multiple packages in one directory (%s and %s)", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: every Go file is excluded by its build constraint", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		// Instances resolves uses of generic functions and methods to
		// their type arguments; without it the call graph and SSA
		// builder would see instantiation sites as bare generic
		// objects and could neither resolve nor version them.
		Instances: map[*ast.Ident]types.Instance{},
		Implicits: map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// fileExcluded reports whether a //go:build constraint above the
// package clause excludes the file for this host. The loader evaluates
// constraints the way `go build` would with no extra tags: the host's
// GOOS and GOARCH, the gc compiler, and every go1.N release tag are
// satisfied; any other tag (ignore, integration, a foreign GOOS) is
// not. Legacy // +build lines without a //go:build line are not
// interpreted — the repo predates none of its files, so every
// constrained file carries the modern form.
func fileExcluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return false // malformed constraint: let the type checker complain
			}
			return !expr.Eval(buildTagSatisfied)
		}
	}
	return false
}

// buildTagSatisfied is the loader's default tag set.
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc", "unix":
		return true
	}
	// Release tags: the standard library comes from the installed
	// toolchain's export data, so every go1.N it defines is satisfied.
	return strings.HasPrefix(tag, "go1.")
}

// goFileNames lists a directory's non-test Go files, sorted.
func goFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}
