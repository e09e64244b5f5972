package ecfrm

import (
	"os"
	"regexp"
	"testing"
)

// TestDocsNameOnlyExistingThings keeps the prose honest: every cmd/<x>,
// internal/<x>, scripts/<x>.sh, BENCH_*.json and `make <target>` that
// README.md, DESIGN.md, EXPERIMENTS.md or the Makefile names must exist, so a
// deletion cannot land without the documentation that pointed at it.
func TestDocsNameOnlyExistingThings(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	paths := regexp.MustCompile(`\b(?:cmd|internal)/[a-z0-9_]+|\bscripts/[a-z0-9_-]+\.sh|\bBENCH_\w+\.json`)
	makes := regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile"} {
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
	}
}
