package repro

// TestMutantsAreCaught re-runs the mutation checks that prove the
// differential references and fuzz targets bite. Each file in
// testdata/mutants describes one mutant:
//
//	free text saying what the mutant breaks
//
//	target: internal/listsched/listsched.go
//	package: ./internal/listsched
//	run: ^FuzzListSchedule$
//	-- old --
//	exact lines of the target, found exactly once
//	-- new --
//	the lines that replace them
//
// The test writes the mutated target to a temporary file and runs
// `go test -overlay <json> -run <run> <package>` with the tree untouched.
// The mutant must make a test fail; a mutant that passes, fails to build,
// or whose old lines are no longer found in the target fails this test, so
// a refactor cannot leave a check blind or a mutant stale without notice.
//
// Each mutant compiles and runs one package's tests, so the set takes a
// while; it is skipped under -short. Run it alone with
//
//	go test -run TestMutantsAreCaught -v .

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type mutant struct {
	target, pkg, run string
	old, new         string
}

// parseMutant reads a mutant file: "key: value" header lines (other header
// lines are description) and the "-- old --" and "-- new --" sections.
func parseMutant(data string) (mutant, error) {
	var m mutant
	head, rest, ok := strings.Cut(data, "-- old --\n")
	if !ok {
		return m, fmt.Errorf("no %q line", "-- old --")
	}
	m.old, m.new, ok = strings.Cut(rest, "-- new --\n")
	if !ok {
		return m, fmt.Errorf("no %q line", "-- new --")
	}
	for _, line := range strings.Split(head, "\n") {
		key, val, _ := strings.Cut(line, ": ")
		switch key {
		case "target":
			m.target = val
		case "package":
			m.pkg = val
		case "run":
			m.run = val
		}
	}
	if m.target == "" || m.pkg == "" || m.run == "" {
		return m, fmt.Errorf("needs target, package and run lines")
	}
	if m.old == "" || m.old == m.new {
		return m, fmt.Errorf("old section is empty or equal to the new one")
	}
	return m, nil
}

func TestMutantsAreCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("each mutant builds and runs a package's tests")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	files, err := filepath.Glob("testdata/mutants/*.mutant")
	if err != nil || len(files) == 0 {
		t.Fatalf("no mutants under testdata/mutants (%v)", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".mutant")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			m, err := parseMutant(string(data))
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			src, err := os.ReadFile(m.target)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("the old lines occur %d times in %s, want exactly once: the mutant is stale", n, m.target)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.target))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			abs, err := filepath.Abs(m.target)
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayFile := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(goBin, "test", "-count=1", "-overlay", overlayFile, "-run", m.run, m.pkg)
			out, err := cmd.CombinedOutput()
			switch {
			case err == nil:
				t.Fatalf("mutant survived: %s %s passes on it\n%s", m.pkg, m.run, out)
			case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
				t.Fatalf("mutant does not build, so it proves nothing\n%s", out)
			case !bytes.Contains(out, []byte("--- FAIL")):
				t.Fatalf("go test failed without a failing test\n%s", out)
			}
		})
	}
}
