package taurus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
		"Compiled", "GridSpec", "Schedule", "CompiledProgram", "Device",
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
// under examples/, cmd/ or bench/, or sit on facadeAllowlist.
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
