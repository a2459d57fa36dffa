package repro_test

import (
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestNoTestHelpersInBinaries keeps test-helper packages (logictest,
// optimaltest: non-_test packages that exist only for the differential
// tests) out of every binary: no command may depend on a repro package whose
// name ends in "test".
func TestNoTestHelpersInBinaries(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		gobin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	out, err := exec.Command(gobin, "list", "-deps", "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list -deps ./cmd/...: %v", err)
	}
	deps := strings.Fields(string(out))
	if len(deps) == 0 {
		t.Fatal("go list -deps ./cmd/... listed nothing")
	}
	for _, p := range deps {
		if strings.HasPrefix(p, "repro/") && strings.HasSuffix(path.Base(p), "test") {
			t.Errorf("test helper %s is linked into a binary under cmd/", p)
		}
	}
}
