package ecfrm

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The reachability ratchet: code nothing serves is code every change pays
// for. The roots are every main package of the module (cmd/*, examples/*)
// plus every package the end-to-end benchmark module (bench/) imports; a
// package no root reaches, or an exported function, method or interface
// method no non-test code uses, fails the build unless the lists below
// carry it with a reason naming the test that needs it. The lists may only
// shrink: an entry whose export gains a caller or is deleted must go, and
// allowListedExports must fall with it.

// allowUnreachedPackages are non-test packages no root imports.
var allowUnreachedPackages = map[string]string{
	"repro/internal/store/storetest": "the CellBackend contract table every backend runs: TestCellBackendContract, TestRemoteCellContract",
}

// allowListedExports is len(allowUncalledExports), pinned so the list
// cannot grow unnoticed; `make loc` prints it.
const allowListedExports = 28

// allowUncalledExports are exported funcs and methods that no non-test code
// in the module or bench/ uses, keyed pkg.Func or pkg.Type.Method. Each
// reason names a Test…, Benchmark… or Fuzz… function that still exists.
var allowUncalledExports = map[string]string{
	// ROADMAP item 9's seed list.
	"disksim.Calibrate":                 "ROADMAP item 4's service-time device fits disksim to measurements: TestCalibrateRecoversKnownModel",
	"disksim.CalibrationError":          "ROADMAP item 4 reports the fit's error: TestCalibratedArrayPredictsMeasurement",
	"placement.Map.DisksOn":             "ROADMAP item 6's even-recovery count per node: TestNodeRotationCoversAndBounds",
	"faultinject.CheckStore":            "chaos-suite oracle: TestChaosConcurrentReaders, TestScheduleReplaysIdentically",
	"storetest.TestCellBackend":         "the CellBackend contract: TestCellBackendContract, TestRemoteCellContract",
	"store.WAL.SpillErr":                "goes with the spill file in ROADMAP item 14: TestWALSpillSkippedAfterDeviceRecovery",
	"store.Metrics.RecoverCount":        "repair metrics oracle: TestRecoverDiskMetrics",
	"store.Metrics.RecoverReadElements": "repair metrics oracle: TestRecoverDiskMetrics",

	// Test constructors and knobs.
	"store.MustNew":                 "the in-memory store of the store, httpd, faultinject and repair tests: TestStoreRoundTrip, TestChaosConcurrentReaders",
	"store.Store.SetRetryPolicy":    "shortens retries under fault plans: TestFanoutStuckOpCancellable and the chaos suites",
	"faultinject.Injector.Ops":      "counts injected operations: TestFailAfterOps",
	"disksim.MustArray":             "the disksim tests' array constructor: TestMustArrayPanics",
	"disksim.NewHeterogeneousArray": "BenchmarkAblationHeterogeneity, TestHeterogeneousArray",
	"workload.MustGenerator":        "the workload tests' generator: TestMustGeneratorPanics, TestDeterminism",
	"experiment.RunAll":             "every figure in one call: TestRunAllSmall",
	"experiment.SortedForms":        "TestSortedForms",
	"ecfrm.NewWorkload":             "public facade: TestPublicWorkload, BenchmarkAblationRotationStride",

	// Oracles the code's own tests check the served arithmetic against.
	"codes.Base.VerifySet":  "recovery-set oracle: TestRecoverySetsValid, TestVerifySet",
	"gf.Div":                "field-axiom oracle: TestInvDivExhaustive",
	"gf.Log":                "field-axiom oracle: TestLogExpRoundTrip",
	"gf.PolyEval":           "TestPolyEval",
	"matrix.Matrix.Invert":  "MDS oracle: TestCauchyAllSquareSubmatricesInvertible",
	"matrix.Vandermonde":    "TestVandermondeSubmatricesInvertible, TestSpanSolveRecoversErasedRows",
	"layout.ECFRM.R":        "geometry oracle: TestECFRMGeometryPaperExample",
	"layout.ECFRM.DataRows": "geometry oracle: TestECFRMGeometryPaperExample, TestECFRMParityRowsTile",
	"layout.Rotated.Stride": "TestRotatedStride, BenchmarkAblationRotationStride",
	"lrc.Code.GroupSize":    "TestMoreLocalGroups, TestWideGroupBreaksAzureGuarantee",
	"lrc.Code.LocalGroup":   "TestLocalGroup",
}

// implicitMethods are called by the standard library through an interface,
// never by name.
var implicitMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true}

// modPkg is one type-checked non-test package of the module or of bench/.
type modPkg struct {
	types *types.Package
	bench bool // part of the nested bench/ module
}

// loadedModule is the type-checked module: its packages by import path and
// the uses recorded across all of their non-test files.
type loadedModule struct {
	pkgs map[string]*modPkg
	info *types.Info
}

var (
	loadOnce sync.Once
	loaded   *loadedModule
	loadErrs []string
)

// loadModule type-checks every non-test package of the root module and of
// bench/ once per test binary: files are those build.Default would compile,
// the standard library comes from source, and any type error fails.
func loadModule(t *testing.T) *loadedModule {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErrs = checkModule() })
	for _, e := range loadErrs {
		t.Error(e)
	}
	if len(loadErrs) > 0 {
		t.FailNow()
	}
	return loaded
}

// moduleImporter checks packages of the module (import paths "repro" and
// "repro/…", bench/ included) itself, recording uses into one types.Info,
// and hands every other path to the source importer.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory, for every module package
	mod  *loadedModule
	errs *[]string
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	dir, ok := m.dirs[p]
	if !ok {
		return m.std.Import(p)
	}
	if mp := m.mod.pkgs[p]; mp != nil {
		return mp.types, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer: m,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { *m.errs = append(*m.errs, err.Error()) },
	}
	pkg, _ := conf.Check(p, m.fset, files, m.mod.info)
	m.mod.pkgs[p] = &modPkg{types: pkg, bench: p == "repro/bench" || strings.HasPrefix(p, "repro/bench/")}
	return pkg, nil
}

func checkModule() (*loadedModule, []string) {
	// Pure-Go variants of the standard library: the source importer would
	// otherwise run cgo on net and os/user.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()

	var errs []string
	dirs := map[string]string{}
	for _, tree := range [][2]string{{".", "repro"}, {"bench", "repro/bench"}} {
		if err := packageDirs(tree[0], tree[1], dirs); err != nil {
			return nil, []string{err.Error()}
		}
	}
	fset := token.NewFileSet()
	mod := &loadedModule{
		pkgs: map[string]*modPkg{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
	}
	imp := &moduleImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil), dirs: dirs, mod: mod, errs: &errs}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp.Import(p); err != nil {
			errs = append(errs, err.Error())
		}
	}
	return mod, errs
}

// packageDirs maps the import path of every directory under dir holding
// non-test Go files of the module modPath, skipping hidden directories,
// testdata and nested modules.
func packageDirs(dir, modPath string, out map[string]string) error {
	return filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
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
		rel, err := filepath.Rel(dir, filepath.Dir(p))
		if err != nil {
			return err
		}
		out[path.Join(modPath, filepath.ToSlash(rel))] = filepath.Dir(p)
		return nil
	})
}

// TestEveryPackageIsReached fails when a non-test package of the module is
// imported, directly or not, by no main package and no bench/ file.
func TestEveryPackageIsReached(t *testing.T) {
	mod := loadModule(t)
	var queue []string
	for p, mp := range mod.pkgs {
		if mp.bench || mp.types.Name() == "main" {
			queue = append(queue, p)
		}
	}
	reached := map[string]bool{}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if mp := mod.pkgs[p]; mp != nil && !reached[p] {
			reached[p] = true
			for _, imp := range mp.types.Imports() {
				queue = append(queue, imp.Path())
			}
		}
	}
	for p, mp := range mod.pkgs {
		if !mp.bench && !reached[p] && allowUnreachedPackages[p] == "" {
			t.Errorf("package %s is imported by no main package and no bench/ file: delete it or allow-list it with a reason", p)
		}
	}
	for p := range allowUnreachedPackages {
		if _, ok := mod.pkgs[p]; !ok || reached[p] {
			t.Errorf("allowUnreachedPackages lists %s, which is now reached or gone: remove the entry", p)
		}
	}
}

// usedFuncs returns every func and method that non-test code of the module
// or bench/ uses. A use of an interface method also uses the method each
// concrete type of the module implementing that interface has for it,
// promoted from an embedded field or not.
func usedFuncs(mod *loadedModule) map[*types.Func]bool {
	used := map[*types.Func]bool{}
	for _, obj := range mod.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	for _, sel := range mod.info.Selections {
		if fn, ok := sel.Obj().(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	var ifaceMethods []*types.Func
	for fn := range used {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	for _, mp := range mod.pkgs {
		scope := mp.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
				continue
			}
			// *T's method set holds T's, so one check covers both.
			ptr := types.NewPointer(tn.Type())
			for _, im := range ifaceMethods {
				iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if !types.Implements(ptr, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name())
				if fn, ok := obj.(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}
	return used
}

// TestEveryExportIsCalled fails when an exported func, method or interface
// method of a non-main package is used by no non-test code in the module or
// bench/. Uses are resolved by the type checker, so two methods of the same
// name are told apart.
func TestEveryExportIsCalled(t *testing.T) {
	mod := loadModule(t)
	used := usedFuncs(mod)
	var uncalled []string
	check := func(key string, fn *types.Func) {
		if fn.Exported() && !used[fn] && !implicitMethods[fn.Name()] {
			uncalled = append(uncalled, key)
		}
	}
	for _, mp := range mod.pkgs {
		pkg := mp.types
		if mp.bench || pkg.Name() == "main" {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					uncalled = append(uncalled, pkg.Name()+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						fn := iface.ExplicitMethod(i)
						check(pkg.Name()+"."+name+"."+fn.Name(), fn)
					}
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					fn := named.Method(i)
					check(pkg.Name()+"."+name+"."+fn.Name(), fn)
				}
			}
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
	tests := definedTestFuncs(t)
	for key, reason := range allowUncalledExports {
		if !found[key] {
			t.Errorf("allowUncalledExports lists %s, which now has a caller or is gone: remove the entry", key)
		}
		if !namesTest(reason, tests) {
			t.Errorf("allowUncalledExports' reason for %s names no existing Test…, Benchmark… or Fuzz… function: %q", key, reason)
		}
	}
	if len(allowUncalledExports) != allowListedExports {
		t.Errorf("allowUncalledExports has %d entries, allowListedExports says %d: the list may only shrink", len(allowUncalledExports), allowListedExports)
	}
}

// namesTest reports whether reason names a function in tests.
func namesTest(reason string, tests map[string]bool) bool {
	for _, w := range strings.FieldsFunc(reason, func(r rune) bool {
		return !(r == '_' || r >= '0' && r <= '9' || r >= 'A' && r <= 'Z' || r >= 'a' && r <= 'z')
	}) {
		if tests[w] {
			return true
		}
	}
	return false
}
