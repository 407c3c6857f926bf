package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// BCERegistry names the hot leaf kernels whose innermost loops must
// compile without bounds checks. These are the loops that execute once
// per multiply-accumulate of an inference; a regression that reintroduces
// a per-element check there is a real slowdown the test suite cannot
// see. Registration is per package path so the guard rebuilds only what
// it audits.
//
// Assembly kernels (packedRowFMA and the CPUID stubs in internal/gemm)
// are exempt by construction: they have no Go body, so the compiler
// emits no bounds checks for them and the index below never sees them
// (buildBCEIndex skips bodyless declarations). Their Go-side tail and
// head handling — packedRowPart — is registered instead.
var BCERegistry = map[string][]string{
	"pbqpdnn/internal/gemm": {"IKJ", "Blocked", "packedRowK4", "packedRowPart", "packB", "packBT", "applyEpiRow"},
	"pbqpdnn/internal/conv": {"im2colPatchesIntoCols", "im2rowPatchesInto", "winoAccumRow",
		"epiWritebackRow", "im2rowPatchesFromCHWInto", "im2colPatchesFromHWCIntoCols",
		"winoGatherHWC", "winoGatherCHW", "winoGatherKernel", "winoStoreLanes", "winoLoadLanes",
		"winoScatterHWC", "winoScatterCHW"},
	"pbqpdnn/internal/program":  {"ReLUInto", "AddInto", "fcApply"},
	"pbqpdnn/internal/winograd": {"addLanes", "addLanes2", "addLanes4"},
}

// BCECheck is one compiler-reported bounds check, classified against
// the registry.
type BCECheck struct {
	File      string
	Line, Col int
	Kind      string // IsInBounds or IsSliceInBounds
	Func      string // enclosing function, "" if none found
	Violation bool
	Why       string // classification rationale
}

// BCEReport is the full audit: every check the compiler reported in the
// registry's packages, with the violations (checks inside a registered
// function's leaf loops) counted out.
type BCEReport struct {
	Checks     []BCECheck
	Violations int
}

// RunBCE rebuilds the registry's packages with the compiler's
// check_bce debug pass and classifies every reported bounds check. A
// check is a violation only when it sits inside a registered hot
// function AND inside a leaf loop — an innermost loop with no nested
// loops and no function calls. Checks hoisted to row-view slice
// expressions in outer loops, at function entry, or dragged in by an
// inlined callee are the accepted cost of the idiom; checks in the
// per-element loops are not. dir is the module root.
func RunBCE(dir string) (*BCEReport, error) {
	pkgs := make([]string, 0, len(BCERegistry))
	for p := range BCERegistry {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)

	// -a defeats the build cache: diagnostics only print when the
	// compiler actually runs.
	args := []string{"build", "-a"}
	for _, p := range pkgs {
		args = append(args, "-gcflags="+p+"=-d=ssa/check_bce/debug=1")
	}
	args = append(args, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: bce build: %v\n%s", err, stderr.String())
	}

	idx, err := buildBCEIndex(dir, pkgs)
	if err != nil {
		return nil, err
	}

	report := &BCEReport{}
	sc := bufio.NewScanner(&stderr)
	for sc.Scan() {
		line := sc.Text()
		c, ok := parseBCELine(line)
		if !ok {
			continue
		}
		idx.classify(&c)
		if c.Violation {
			report.Violations++
		}
		report.Checks = append(report.Checks, c)
	}
	return report, nil
}

// parseBCELine parses "path/file.go:line:col: Found IsInBounds".
func parseBCELine(line string) (BCECheck, bool) {
	i := strings.Index(line, ": Found ")
	if i < 0 {
		return BCECheck{}, false
	}
	kind := strings.TrimSpace(line[i+len(": Found "):])
	parts := strings.Split(line[:i], ":")
	if len(parts) < 3 {
		return BCECheck{}, false
	}
	col, err1 := strconv.Atoi(parts[len(parts)-1])
	ln, err2 := strconv.Atoi(parts[len(parts)-2])
	if err1 != nil || err2 != nil {
		return BCECheck{}, false
	}
	return BCECheck{
		File: strings.Join(parts[:len(parts)-2], ":"),
		Line: ln,
		Col:  col,
		Kind: kind,
	}, true
}

// loopSpan is one for/range loop's line extent and its leaf-loop
// verdict.
type loopSpan struct {
	start, end int
	nested     bool // contains another loop
	calls      bool // contains a real function call (incl. copy/append)
}

// funcSpan is one function's line extent with its loops.
type funcSpan struct {
	name       string
	registered bool
	start, end int
	loops      []loopSpan
}

type bceIndex struct {
	funcs map[string][]funcSpan // relative file path → functions
}

// buildBCEIndex parses the registry packages' sources (syntax only) and
// records, per file, the function and loop line spans needed to
// classify check positions.
func buildBCEIndex(dir string, pkgs []string) (*bceIndex, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list for bce index: %v", err)
	}
	idx := &bceIndex{funcs: map[string][]funcSpan{}}
	fset := token.NewFileSet()
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		registered := map[string]bool{}
		for _, name := range BCERegistry[e.ImportPath] {
			registered[name] = true
		}
		for _, name := range e.GoFiles {
			abs := filepath.Join(e.Dir, name)
			rel, err := filepath.Rel(dir, abs)
			if err != nil {
				rel = abs
			}
			f, err := parser.ParseFile(fset, abs, nil, 0)
			if err != nil {
				return nil, fmt.Errorf("lint: parsing %s: %v", rel, err)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fs := funcSpan{
					name:       fd.Name.Name,
					registered: registered[fd.Name.Name],
					start:      fset.Position(fd.Pos()).Line,
					end:        fset.Position(fd.End()).Line,
				}
				collectLoops(fset, fd.Body, &fs.loops)
				idx.funcs[rel] = append(idx.funcs[rel], fs)
			}
		}
	}
	return idx, nil
}

// collectLoops records every for/range loop under n with its nesting
// and call content.
func collectLoops(fset *token.FileSet, n ast.Node, out *[]loopSpan) {
	ast.Inspect(n, func(node ast.Node) bool {
		var body *ast.BlockStmt
		switch l := node.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		span := loopSpan{
			start: fset.Position(node.Pos()).Line,
			end:   fset.Position(node.End()).Line,
		}
		ast.Inspect(body, func(inner ast.Node) bool {
			switch c := inner.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				span.nested = true
			case *ast.CallExpr:
				if isRealCall(c) {
					span.calls = true
				}
			}
			return true
		})
		*out = append(*out, span)
		return true
	})
}

// isRealCall distinguishes function calls — whose inlined bodies may
// legitimately carry checks into a loop — from type conversions and the
// len/cap builtins, which do not. This is a syntax-only judgment:
// selector calls and non-type identifiers count as calls; identifiers
// naming builtin types (and composite type expressions) are
// conversions.
func isRealCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "len", "cap",
			"bool", "string", "byte", "rune", "uintptr",
			"int", "int8", "int16", "int32", "int64",
			"uint", "uint8", "uint16", "uint32", "uint64",
			"float32", "float64", "complex64", "complex128":
			return false
		}
		return true
	case *ast.SelectorExpr:
		return true
	}
	return false // *ast.ArrayType etc.: a conversion
}

// classify fills in the enclosing function and the leaf-loop verdict
// for one reported check.
func (idx *bceIndex) classify(c *BCECheck) {
	var fn *funcSpan
	for i := range idx.funcs[c.File] {
		f := &idx.funcs[c.File][i]
		if c.Line >= f.start && c.Line <= f.end {
			fn = f
			break
		}
	}
	if fn == nil {
		c.Why = "outside any function"
		return
	}
	c.Func = fn.name
	if !fn.registered {
		c.Why = "function not registered"
		return
	}
	var loop *loopSpan
	for i := range fn.loops {
		l := &fn.loops[i]
		if c.Line < l.start || c.Line > l.end {
			continue
		}
		if loop == nil || l.start > loop.start {
			loop = l // innermost: latest-starting containing loop
		}
	}
	switch {
	case loop == nil:
		c.Why = "outside any loop (function-level setup)"
	case loop.nested:
		c.Why = "non-leaf loop (row/tile setup)"
	case loop.calls:
		c.Why = "leaf loop with calls (inlined callee checks)"
	default:
		c.Violation = true
		c.Why = "bounds check in registered hot leaf loop"
	}
}
