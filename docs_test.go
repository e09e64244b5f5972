package ecfrm

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyExistingThings keeps the prose honest: every cmd/<x>,
// internal/<x>, scripts/<x>.sh, BENCH_*.json and `make <target>` that
// README.md, DESIGN.md, EXPERIMENTS.md, the verify skill's SKILL.md or the
// Makefile names must exist, and every Test…/Benchmark…/Fuzz… identifier
// the four documents name must be a function defined somewhere in the
// module (a name written with a trailing "…" only as a prefix), so a
// deletion or rename cannot land without the documentation that pointed at
// it.
func TestDocsNameOnlyExistingThings(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	funcs := definedTestFuncs(t)
	paths := regexp.MustCompile(`\b(?:cmd|internal)/[a-z0-9_]+|\bscripts/[a-z0-9_-]+\.sh|\bBENCH_\w+\.json`)
	makes := regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	tests := regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(…)?`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "Makefile"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths.FindAll(text, -1) {
			if _, err := os.Stat(string(p)); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
		for _, m := range makes.FindAllSubmatch(text, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", doc, m[1])
			}
		}
		if doc == "Makefile" {
			continue
		}
		for _, m := range tests.FindAllSubmatch(text, -1) {
			name, found := string(m[1]), funcs[string(m[1])]
			for f := range funcs {
				if len(m[2]) > 0 && strings.HasPrefix(f, name) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s names %s, which no function in the module defines", doc, m[0])
			}
		}
	}
}

// definedTestFuncs returns every top-level Test…/Benchmark…/Fuzz… function
// declared in the module's Go files, test files or not.
func definedTestFuncs(t *testing.T) map[string]bool {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)[\[(]`)
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}
