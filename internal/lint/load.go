package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Incomplete bool
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps` on args (flags, then patterns) in
// dir and decodes its JSON stream.
func goList(dir string, args []string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly,Incomplete,Error",
	}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	var entries []listEntry
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var e listEntry
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// Load resolves the patterns with the go command, type-checks every
// matched (non-dependency) package from source against the export data
// of its imports, and returns them sorted by import path. dir is the
// module root the go command runs in ("" for the current directory).
//
// Only non-test files are loaded: the invariants pdc-lint enforces
// apply to production code, and test files are free to use wall time.
func Load(dir string, patterns ...string) ([]*Package, error) {
	entries, err := goList(dir, append([]string{"-e"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []*listEntry
	for i := range entries {
		e := &entries[i]
		if e.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", e.ImportPath, e.Error.Err)
		}
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		if !e.DepOnly && len(e.GoFiles) > 0 {
			targets = append(targets, e)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)

	var pkgs []*Package
	for _, t := range targets {
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := typecheck(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkg.Name = t.Name
		pkg.Dir = t.Dir
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadTree is the fixture loader (fixtures live outside the module build
// graph): every directory under root (including root itself) that
// contains .go files becomes one package whose import path is
// rootPkgPath plus the directory's relative path, so a flat directory is
// a one-package tree. Fixture packages may import each other by those
// paths (resolved from the already-type-checked packages) and the stdlib
// (resolved through the toolchain's export data). Packages are returned
// sorted by import path; all share one FileSet so cross-package
// diagnostics compare.
func LoadTree(root, rootPkgPath string) ([]*Package, error) {
	type fixturePkg struct {
		path    string
		files   []string
		imports []string
	}
	var fixtures []*fixturePkg
	byPath := make(map[string]*fixturePkg)
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil || !info.IsDir() {
			return err
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		var files []string
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(p, e.Name()))
			}
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		pkgPath := rootPkgPath
		if rel != "." {
			pkgPath = rootPkgPath + "/" + filepath.ToSlash(rel)
		}
		fp := &fixturePkg{path: pkgPath, files: files}
		fixtures = append(fixtures, fp)
		byPath[pkgPath] = fp
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(fixtures) == 0 {
		return nil, fmt.Errorf("lint: no .go files under %s", root)
	}
	sort.Slice(fixtures, func(i, j int) bool { return fixtures[i].path < fixtures[j].path })

	fset := token.NewFileSet()
	stdlib := make(map[string]bool)
	for _, fp := range fixtures {
		for _, name := range fp.files {
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil || p == "unsafe" {
					continue
				}
				if _, local := byPath[p]; local {
					fp.imports = append(fp.imports, p)
				} else {
					stdlib[p] = true
				}
			}
		}
	}

	exports := make(map[string]string)
	if len(stdlib) > 0 {
		var imports []string
		for p := range stdlib {
			imports = append(imports, p)
		}
		sort.Strings(imports)
		entries, err := goList(root, imports)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.Export != "" {
				exports[e.ImportPath] = e.Export
			}
		}
	}

	local := make(map[string]*types.Package)
	imp := &treeImporter{
		local:    local,
		fallback: newExportImporter(fset, exports),
	}

	// Type-check in dependency order (fixture imports form a DAG).
	done := make(map[string]bool)
	var order []*fixturePkg
	visiting := make(map[string]bool)
	var visit func(fp *fixturePkg) error
	visit = func(fp *fixturePkg) error {
		if done[fp.path] {
			return nil
		}
		if visiting[fp.path] {
			return fmt.Errorf("lint: fixture import cycle through %s", fp.path)
		}
		visiting[fp.path] = true
		for _, dep := range fp.imports {
			if err := visit(byPath[dep]); err != nil {
				return err
			}
		}
		visiting[fp.path] = false
		done[fp.path] = true
		order = append(order, fp)
		return nil
	}
	for _, fp := range fixtures {
		if err := visit(fp); err != nil {
			return nil, err
		}
	}

	pkgsByPath := make(map[string]*Package)
	for _, fp := range order {
		pkg, err := typecheck(fset, fp.path, fp.files, imp)
		if err != nil {
			return nil, err
		}
		local[fp.path] = pkg.Types
		pkgsByPath[fp.path] = pkg
	}
	out := make([]*Package, 0, len(fixtures))
	for _, fp := range fixtures {
		out = append(out, pkgsByPath[fp.path])
	}
	return out, nil
}

// treeImporter serves fixture-local packages from the already
// type-checked set and everything else from export data.
type treeImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (ti *treeImporter) Import(path string) (*types.Package, error) {
	if p, ok := ti.local[path]; ok {
		return p, nil
	}
	return ti.fallback.Import(path)
}

// typecheck parses the files and type-checks them as one package.
func typecheck(fset *token.FileSet, pkgPath string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// exportImporter resolves imports from the gc export data files that
// `go list -export` reported (import path -> file).
type exportImporter struct {
	gc types.ImporterFrom
}

func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return &exportImporter{gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}).(types.ImporterFrom)}
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ei.gc.Import(path)
}
