package ecfrm

import (
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

// The reachability ratchet: code nothing serves is code every change pays
// for. The roots are every main package of the module (cmd/*, examples/*)
// plus every package the end-to-end benchmark module (bench/) imports; a
// package no root reaches, or an exported function no non-test code names,
// fails the build unless the lists below carry it with a reason. The lists
// may only shrink: an entry whose export gains a caller or is deleted must
// go, and allowListedExports must fall with it.

// allowUnreachedPackages are non-test packages no root imports.
var allowUnreachedPackages = map[string]string{
	"repro/internal/store/storetest": "the CellBackend contract table every backend runs: TestCellBackendContract, TestRemoteCellContract",
}

// allowListedExports is len(allowUncalledExports), pinned so the list
// cannot grow unnoticed; `make loc` prints it.
const allowListedExports = 32

// allowUncalledExports are exported funcs and methods that no non-test code
// in the module or bench/ names, keyed pkg.Func or pkg.Type.Method.
var allowUncalledExports = map[string]string{
	// ROADMAP item 9's seed list.
	"store.Store.WriteAtReencode":       "invariant 12's reference write: TestWriteAtDeltaEquivalentToReencode",
	"disksim.Calibrate":                 "ROADMAP item 4's service-time device fits disksim to measurements: TestCalibrateRecoversKnownModel",
	"disksim.CalibrationError":          "ROADMAP item 4 reports the fit's error: TestCalibratedArrayPredictsMeasurement",
	"shardio.EnableMetrics":             "stage metrics of the streaming codec: TestStreamStageMetrics",
	"placement.Map.DisksOn":             "ROADMAP item 6's even-recovery count per node: TestNodeRotationCoversAndBounds",
	"faultinject.CheckStore":            "chaos-suite oracle: TestChaosConcurrentReaders, TestScheduleReplaysIdentically",
	"storetest.TestCellBackend":         "the CellBackend contract: TestCellBackendContract, TestRemoteCellContract",
	"store.WAL.SpillErr":                "goes with the spill file in ROADMAP item 14: TestWALSpillSkippedAfterDeviceRecovery",
	"store.Metrics.RecoverCount":        "repair metrics oracle: TestRecoverDiskMetrics",
	"store.Metrics.RecoverReadElements": "repair metrics oracle: TestRecoverDiskMetrics",

	// Test constructors and knobs.
	"store.MustNew":                 "the store constructor of every store, httpd, faultinject and repair test",
	"store.Store.SetRetryPolicy":    "shortens retries under fault plans: TestFanoutStuckOpCancellable and the chaos suites",
	"faultinject.Injector.Ops":      "counts injected operations: TestFailAfterOps",
	"disksim.MustArray":             "the disksim tests' array constructor: TestMustArrayPanics",
	"disksim.NewHeterogeneousArray": "BenchmarkAblationHeterogeneity, TestHeterogeneousArray",
	"workload.MustGenerator":        "the workload tests' generator: TestMustGeneratorPanics, TestDeterminism",
	"experiment.RunAll":             "every figure in one call: TestRunAllSmall",
	"experiment.SortedForms":        "TestSortedForms",
	"ecfrm.NewWorkload":             "public facade: TestPublicWorkload, BenchmarkAblationRotationStride",

	// Oracles the code's own tests check the served arithmetic against.
	"codes.Base.VerifySet":          "recovery-set oracle: TestRecoverySetsValid, TestVerifySet",
	"gf.Div":                        "field-axiom oracle: TestInvDivExhaustive",
	"gf.Log":                        "field-axiom oracle: TestLogExpRoundTrip",
	"gf.PolyEval":                   "TestPolyEval",
	"matrix.Matrix.Invert":          "MDS oracle: TestCauchyAllSquareSubmatricesInvertible",
	"matrix.Vandermonde":            "TestVandermondeSubmatricesInvertible, TestSpanSolveRecoversErasedRows",
	"layout.ECFRM.R":                "geometry oracle: TestECFRMGeometryPaperExample",
	"layout.ECFRM.DataRows":         "geometry oracle: TestECFRMGeometryPaperExample, TestECFRMParityRowsTile",
	"layout.Rotated.Stride":         "TestRotatedStride, BenchmarkAblationRotationStride",
	"lrc.Code.GroupSize":            "TestMoreLocalGroups, TestWideGroupBreaksAzureGuarantee",
	"lrc.Code.LocalGroup":           "TestLocalGroup",
	"xorcode.Code.DataCells":        "the §III-A array codes' round trips: TestDataRefsRowMajorAndComplete",
	"xorcode.Code.ReconstructDisks": "the §III-A array codes' decodability: TestXCodeAllDoubleDiskFailures",
}

// implicitMethods are called by the standard library through an interface,
// never by name.
var implicitMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true}

// srcFile is one parsed non-test Go file.
type srcFile struct {
	pkgPath string // import path of its package
	ast     *ast.File
}

// parseTree parses every non-test .go file under dir, which holds the module
// modPath, skipping hidden directories, testdata and nested modules.
func parseTree(t *testing.T, fset *token.FileSet, dir, modPath string) []srcFile {
	t.Helper()
	var files []srcFile
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != dir && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != dir && err == nil {
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
		rel, err := filepath.Rel(dir, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, srcFile{pkgPath: path.Join(modPath, filepath.ToSlash(rel)), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// moduleSources returns the root module's non-test files and bench/'s.
func moduleSources(t *testing.T) (root, bench []srcFile) {
	t.Helper()
	fset := token.NewFileSet()
	return parseTree(t, fset, ".", "repro"), parseTree(t, fset, "bench", "repro/bench")
}

func imports(f *ast.File) []string {
	var out []string
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err == nil && (p == "repro" || strings.HasPrefix(p, "repro/")) {
			out = append(out, p)
		}
	}
	return out
}

// TestEveryPackageIsReached fails when a non-test package of the module is
// imported, directly or not, by no main package and no bench/ file.
func TestEveryPackageIsReached(t *testing.T) {
	root, bench := moduleSources(t)
	deps := map[string][]string{}
	var queue []string
	for _, f := range root {
		deps[f.pkgPath] = append(deps[f.pkgPath], imports(f.ast)...)
		if f.ast.Name.Name == "main" {
			queue = append(queue, f.pkgPath)
		}
	}
	for _, f := range bench {
		queue = append(queue, imports(f.ast)...)
	}
	reached := map[string]bool{}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if !reached[p] {
			reached[p] = true
			queue = append(queue, deps[p]...)
		}
	}
	for p := range deps {
		if !reached[p] && allowUnreachedPackages[p] == "" {
			t.Errorf("package %s is imported by no main package and no bench/ file: delete it or allow-list it with a reason", p)
		}
	}
	for p := range allowUnreachedPackages {
		if _, ok := deps[p]; !ok || reached[p] {
			t.Errorf("allowUnreachedPackages lists %s, which is now reached or gone: remove the entry", p)
		}
	}
}

// TestEveryExportIsCalled fails when an exported func or method outside
// main packages is named by no non-test code in the module or bench/. A
// reference is any use of the name, so a method shares its callers with
// every other identifier of that name: the check is a ratchet, not a proof.
func TestEveryExportIsCalled(t *testing.T) {
	root, bench := moduleSources(t)
	used := map[string]bool{}
	for _, f := range append(root, bench...) {
		decl := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				decl[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					decl[id] = true
				}
			case *ast.Ident:
				if !decl[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	}
	var uncalled []string
	for _, f := range root {
		if f.ast.Name.Name == "main" {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || used[fn.Name.Name] {
				continue
			}
			key := f.ast.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				if implicitMethods[fn.Name.Name] {
					continue
				}
				key = f.ast.Name.Name + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			uncalled = append(uncalled, key)
		}
	}
	sort.Strings(uncalled)
	found := map[string]bool{}
	for _, key := range uncalled {
		found[key] = true
		if allowUncalledExports[key] == "" {
			t.Errorf("%s has no non-test caller: delete it or allow-list it with a reason", key)
		}
	}
	for key := range allowUncalledExports {
		if !found[key] {
			t.Errorf("allowUncalledExports lists %s, which now has a caller or is gone: remove the entry", key)
		}
	}
	if len(allowUncalledExports) != allowListedExports {
		t.Errorf("allowUncalledExports has %d entries, allowListedExports says %d: the list may only shrink", len(allowUncalledExports), allowListedExports)
	}
}

// recvType names a method receiver's base type: T for T, *T, T[P] or *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
