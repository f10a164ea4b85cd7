// Package lint is the repo's static-analysis driver: a stdlib-only
// multichecker in the shape of golang.org/x/tools/go/analysis, sized for a
// dependency-free tree. Each analyzer is a pure function from a parsed file
// to diagnostics; the driver owns file discovery, parsing and aggregation so
// every checker sees the same corpus under the same skip rules (generated
// trees none, testdata and _test.go files excluded — the contracts bind
// production code).
//
// The suite (run by `make lint` and cmd/taurus-lint) enforces the repo's
// cross-cutting contracts that go vet cannot see:
//
//   - hotpathcheck: functions annotated `//hotpath: zero-alloc` must stay
//     free of allocating constructs (see internal/lint/hotpathcheck).
//   - obsnames: metric registrations must use valid dotted names, one kind
//     per name (see internal/lint/obsnames).
//
// Analyzers are syntactic (go/parser + go/ast, no type information): cheap
// enough to run on every build, precise enough when paired with the
// annotation escape hatches each analyzer defines. Each annotation carries
// its justification in the comment, so exemptions are reviewable in place.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding from one analyzer.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos locates the offending syntax.
	Pos token.Position
	// Msg is the human-readable diagnostic.
	Msg string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Msg)
}

// File is one parsed source file handed to each analyzer.
type File struct {
	Fset *token.FileSet
	File *ast.File
	Path string
}

// Analyzer is one named check over a single file.
type Analyzer struct {
	// Name is the analyzer's identifier, prefixed to its diagnostics.
	Name string
	// Doc is a one-line description, shown by `taurus-lint -help`.
	Doc string
	// Run reports the analyzer's diagnostics for one file.
	Run func(f *File) []Diagnostic
}

// CheckFile runs the analyzers over one parsed file. The file must have been
// parsed with parser.ParseComments so annotation escape hatches are visible.
func CheckFile(fset *token.FileSet, file *ast.File, path string, analyzers ...*Analyzer) []Diagnostic {
	f := &File{Fset: fset, File: file, Path: path}
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.Run(f)...)
	}
	return diags
}

// CheckDir parses every production Go file under root (skipping _test.go,
// testdata and hidden directories) and runs the analyzers over each,
// returning diagnostics in file-then-position order.
func CheckDir(root string, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		diags = append(diags, CheckFile(fset, file, path, analyzers...)...)
		return nil
	})
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		if diags[i].Pos.Line != diags[j].Pos.Line {
			return diags[i].Pos.Line < diags[j].Pos.Line
		}
		return diags[i].Pos.Column < diags[j].Pos.Column
	})
	return diags, err
}

// AnnotatedLines collects the 1-based line numbers of comments containing
// marker. Analyzers treat an annotation as covering a construct starting on
// the same line or the line after, so both trailing and preceding-line
// comments work. A match anywhere in a stacked comment block also marks the
// block's last line: annotations from several analyzers can sit above one
// call without shadowing each other.
func AnnotatedLines(f *File, marker string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.File.Comments {
		hit := false
		for _, c := range cg.List {
			if strings.Contains(c.Text, marker) {
				lines[f.Fset.Position(c.Pos()).Line] = true
				hit = true
			}
		}
		if hit {
			lines[f.Fset.Position(cg.End()).Line] = true
		}
	}
	return lines
}

// CalleeName returns the bare name a call expression invokes ("" when the
// callee is not an identifier or selector), shared by the call-site checkers.
func CalleeName(fun ast.Expr) string {
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return ""
}
