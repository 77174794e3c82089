package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEmitExample(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cinder.xmi")
	if err := run([]string{"-emit-example", path}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty XMI file")
	}
}

func TestGenerateFromXMI(t *testing.T) {
	dir := t.TempDir()
	xmiPath := filepath.Join(dir, "cinder.xmi")
	if err := run([]string{"-emit-example", xmiPath}); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "out")
	dotPath := filepath.Join(dir, "model.dot")
	if err := run([]string{"-out", outDir, "-contracts", "-dot", dotPath, "cindermon", xmiPath}); err != nil {
		t.Fatalf("run: %v", err)
	}
	dot, err := os.ReadFile(dotPath)
	if err != nil || len(dot) == 0 {
		t.Errorf("dot file: %v (%d bytes)", err, len(dot))
	}
	for _, name := range []string{"go.mod", "model.xmi", "contracts.go", "main.go"} {
		if _, err := os.Stat(filepath.Join(outDir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}

// TestOutsideCheckout: the generated module builds against the checkout
// uml2go runs in, so outside one uml2go refuses and says why.
func TestOutsideCheckout(t *testing.T) {
	dir := t.TempDir()
	xmiPath := filepath.Join(dir, "cinder.xmi")
	if err := run([]string{"-emit-example", xmiPath}); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	err = run([]string{"cindermon", xmiPath})
	if err == nil || !strings.Contains(err.Error(), "not inside a cloudmon checkout") {
		t.Fatalf("run outside a checkout: %v, want a refusal naming the checkout", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "cindermon")); !os.IsNotExist(err) {
		t.Errorf("output written outside a checkout: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"onlyproject"}); err == nil {
		t.Error("single arg accepted")
	}
	if err := run([]string{"proj", "missing.xmi"}); err == nil {
		t.Error("missing XMI file accepted")
	}
}
