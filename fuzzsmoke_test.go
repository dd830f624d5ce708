package mets

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzSmokeNamesEveryTarget holds `make fuzz-smoke` to its promise of
// running every fuzz target: each `func Fuzz…` in a _test.go file of the
// module must have a line in the recipe that fuzzes it by name in its own
// package, and each line must name a target that exists.
func TestFuzzSmokeNamesEveryTarget(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := string(makefile)
	start := strings.Index(recipe, "\nfuzz-smoke:")
	if start < 0 {
		t.Fatal("the Makefile has no fuzz-smoke target")
	}
	recipe = recipe[start+1:]
	if end := strings.Index(recipe, "\n\n"); end >= 0 {
		recipe = recipe[:end]
	}
	line := regexp.MustCompile(`-fuzz '\^(Fuzz\w+)\$\$' .* (\./\S+)`)
	listed := map[string]bool{}
	for _, m := range line.FindAllStringSubmatch(recipe, -1) {
		listed[filepath.Clean(m[2])+" "+m[1]] = true
	}
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			found[filepath.Dir(path)+" "+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for target := range found {
		if !listed[target] {
			t.Errorf("fuzz target %s is not in make fuzz-smoke", target)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("make fuzz-smoke names %s, which no _test.go declares", target)
		}
	}
	if len(found) == 0 {
		t.Fatal("no fuzz targets found")
	}
	t.Logf("%d fuzz targets, each in make fuzz-smoke", len(found))
}
