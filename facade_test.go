package taurus

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeAllowlist names the exports that stay although no example, command
// or bench/ file writes them as taurus.X, one group per reason.
var facadeAllowlist = map[string][]string{
	// The paper's programming surface: MapReduce programs (Figure 4), their
	// two static verifiers, and the model lifecycles the control plane
	// retrains and pushes (Figure 1, §3.3.1).
	"paper surface": {
		"Builder", "NewProgram", "Value",
		"VerifyGraph", "GraphReport", "VerifyTape", "TapeReport",
		"Deployable", "NewSVMDeployable", "SVMDeployableConfig",
		"NewKMeansDeployable", "KMeansDeployableConfig",
	},
	// Types a kept function takes or returns, so a caller can name them.
	"signature types": {
		"Compiled", "GridSpec", "CompiledProgram", "Device",
		"Option", "Controller", "Fleet", "LabelSource", "ControllerOption",
		"MetricsRegistry", "TraceJournal", "Simulator", "KMeans", "LSTM",
		"Quantizer", "AnomalyConfig", "AnomalyGenerator", "IoTConfig",
		"IoTGenerator", "DriftConfig", "DriftingStream", "StreamOption",
		"Trainer",
	},
	// Sentinel errors: the package doc promises them for errors.Is.
	"sentinels": {
		"ErrBadGraph", "ErrGraphIncompatible", "ErrBadTape", "ErrNoModel",
		"ErrBadFeatureWidth", "ErrStructureMismatch", "ErrBadConfig",
		"ErrDistFitClosed",
	},
}

// TestFacadeExportsAreCalled keeps the facade to what its callers call:
// every name taurus.go exports must be written as taurus.X by non-test code
// under examples/, cmd/ or bench/, or sit on facadeAllowlist — and a
// "signature types" entry only while a kept function takes or returns it.
func TestFacadeExportsAreCalled(t *testing.T) {
	exports := facadeExports(t, "taurus.go")
	called := map[string]bool{}
	for _, dir := range []string{"examples", "cmd", "bench"} {
		facadeSelectors(t, dir, called)
	}
	allowed := map[string]bool{}
	for group, names := range facadeAllowlist {
		for _, n := range names {
			if !exports[n] {
				t.Errorf("allowlist (%s) names %s, which taurus.go does not export", group, n)
			}
			allowed[n] = true
		}
	}
	var unused []string
	for n := range exports {
		if !called[n] && !allowed[n] {
			unused = append(unused, n)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exports no example, command or bench/ file calls: %s", len(unused), strings.Join(unused, ", "))
	}
	if outside := signatureTypesOutsideSignatures(t); len(outside) > 0 {
		t.Errorf("signature types no exported function takes or returns: %s", strings.Join(outside, ", "))
	}
}

// facadeExports returns the exported top-level names declared in file.
func facadeExports(t *testing.T, file string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}

// facadeSelectors adds to called every X of a taurus.X selector in the
// non-test Go files under dir, whatever name the file imports taurus as.
func facadeSelectors(t *testing.T, dir string, called map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "taurus" {
				local = "taurus"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					called[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// signatureTypesOutsideSignatures returns the "signature types" allowlist
// entries that no other export of taurus.go takes or returns: no parameter
// or result of an exported function, or of an exported function-valued
// variable such as NewAnomalyGenerator = dataset.NewAnomalyGenerator, has
// the entry's type. The facade is type-checked against the export data
// `go list -export` builds for its imports.
func signatureTypesOutsideSignatures(t *testing.T) []string {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", ".").Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exportData := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		exportData[path] = file
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "taurus.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(path string) (io.ReadCloser, error) { return os.Open(exportData[path]) }
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	pkg, err := conf.Check("taurus", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// mentions reports whether typ is in, or is reached from in through
	// pointers, slices and the parameters and results of functions.
	var mentions func(typ, in types.Type) bool
	mentions = func(typ, in types.Type) bool {
		if types.Identical(typ, in) {
			return true
		}
		switch in := types.Unalias(in).(type) {
		case *types.Pointer:
			return mentions(typ, in.Elem())
		case *types.Slice:
			return mentions(typ, in.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{in.Params(), in.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					if mentions(typ, tuple.At(i).Type()) {
						return true
					}
				}
			}
		}
		return false
	}
	scope := pkg.Scope()
	var outside []string
	for _, name := range facadeAllowlist["signature types"] {
		entry := scope.Lookup(name)
		if entry == nil {
			continue // not exported: the caller reports it
		}
		found := false
		for _, other := range scope.Names() {
			obj := scope.Lookup(other)
			if _, isType := obj.(*types.TypeName); isType || !obj.Exported() {
				continue
			}
			if sig, ok := obj.Type().Underlying().(*types.Signature); ok && mentions(entry.Type(), sig) {
				found = true
				break
			}
		}
		if !found {
			outside = append(outside, name)
		}
	}
	return outside
}

// TestExampleTableMatchesExamples: README's example table and examples/
// match one to one — every `examples/<name>` row names a directory holding a
// main.go, and every directory under examples/ has a row.
func TestExampleTableMatchesExamples(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `examples/([^`]+)` \\|").FindAllStringSubmatch(string(readme), -1) {
		if rows[m[1]] {
			t.Errorf("README lists examples/%s twice", m[1])
		}
		rows[m[1]] = true
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && !rows[d.Name()] {
			t.Errorf("examples/%s has no row in README's example table", d.Name())
		}
	}
	for name := range rows {
		if _, err := os.Stat(filepath.Join("examples", name, "main.go")); err != nil {
			t.Errorf("README's example table names examples/%s: %v", name, err)
		}
	}
}
