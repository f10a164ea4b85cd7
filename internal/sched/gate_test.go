package sched

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"taurus/internal/cgra"
	mr "taurus/internal/mapreduce"
)

// TestCompileGate: Compile is plan → emit → Check. A faithful tape comes
// back; the same program with one instruction flipped — the tape a
// miscompiling emit would hand the gate — is refused with ErrBadTape, which
// Compile returns in place of the program. CompileUnverified hands the
// program out before the gate, so the flip is the test's and not emit's.
func TestCompileGate(t *testing.T) {
	b := mr.NewBuilder("gate")
	x := b.Input("x", 4)
	b.Output(b.Map(mr.MAdd, b.DotProduct(b.Const("w", []int32{1, -2, 3, -4}), x), b.Scalar("bias", 5)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(g, cgra.DefaultGrid()); err != nil {
		t.Fatalf("Compile rejects a clean graph: %v", err)
	}
	p, err := CompileUnverified(g, cgra.DefaultGrid())
	if err != nil {
		t.Fatal(err)
	}
	pc := slices.IndexFunc(p.tape.code, func(ins Instr) bool { return ins.Op == OpDotAdd })
	if pc < 0 {
		t.Fatalf("tape %v has no dotadd to flip", Verify(p).Tape)
	}
	if err := Check(p); err != nil {
		t.Fatalf("the gate refuses the tape Compile accepted: %v", err)
	}
	p.tape.code[pc].Op = OpDot // the bias dropped
	if err := Check(p); !errors.Is(err, ErrBadTape) {
		t.Fatalf("the gate passes a tape that drops the bias: %v", err)
	}
}

// verifierFiles are the translation validator: Check and every analysis it
// runs.
var verifierFiles = []string{
	"verify.go", "verify_alias.go", "verify_bounds.go", "verify_equiv.go", "verify_plan.go", "verify_sums.go",
}

// kernelName matches the code that runs a tape: the per-opcode lane loops,
// the packed matvec kernels, the saturating narrowing and the sweeps.
var kernelName = regexp.MustCompile(`Lanes$|^packedDot2|^matVec|^sat32$|^Run$|^RunBatch$`)

// TestVerifierCallsNoKernel: the verifier derives what each instruction
// computes from its own model of the opcode. One that called a kernel would
// hold the tape to the very code it is meant to check, and sharing a package
// with the kernels puts them in reach — so no verifier file may name one.
func TestVerifierCallsNoKernel(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name string) *ast.File {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	kernels := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || slices.Contains(verifierFiles, name) {
			continue
		}
		for _, d := range parse(name).Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && kernelName.MatchString(fd.Name.Name) {
				kernels[fd.Name.Name] = true
			}
		}
	}
	for _, want := range []string{"dotLanes", "reluScaleLanes", "packedDot2x2", "matVec", "matVecPair", "sat32", "Run", "RunBatch"} {
		if !kernels[want] {
			t.Fatalf("no kernel %s among %v: the pattern no longer finds the tape's kernels", want, kernels)
		}
	}
	for _, name := range verifierFiles {
		ast.Inspect(parse(name), func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && kernels[id.Name] {
				t.Errorf("%s: the verifier names the tape kernel %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}
