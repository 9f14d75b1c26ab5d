package generation

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
)

// The kill -9 crash matrix: a real subprocess running ApplyDeltas is
// SIGKILL'd at each lifecycle stage (via the crashHook seam), and the
// parent then proves the acceptance criterion — a kill at ANY point
// leaves the directory with a serveable generation: Open succeeds, the
// current store answers distances matching either the old or the new
// graph exactly, and the lifecycle is not wedged (a follow-up update
// still lands).

const (
	crashEnv      = "APSPARK_GEN_CRASH_HELPER"
	crashDirEnv   = "APSPARK_GEN_CRASH_DIR"
	crashStageEnv = "APSPARK_GEN_CRASH_STAGE"
)

// crashMatrixN/B shape the crash-test stores: q = 4 panels, so the
// mid-build hook (after panel 1) has panels left to tear.
const (
	crashMatrixN = 32
	crashMatrixB = 8
)

func crashMatrixDeltas() []Delta {
	return []Delta{{U: 0, V: 1, W: 9}, {U: 5, V: 6, W: 0.5}}
}

// TestHelperCrashUpdate is not a test: it is the subprocess body of
// TestKillNineCrashMatrix. It arms the crash hook to SIGKILL its own
// process at the requested stage, then runs one update.
func TestHelperCrashUpdate(t *testing.T) {
	if os.Getenv(crashEnv) != "1" {
		t.Skip("subprocess helper")
	}
	stage := os.Getenv(crashStageEnv)
	crashHook = func(s string) {
		if s == stage {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable: SIGKILL is not deliverable-to-handler
		}
	}
	// KeepLast 1 makes GC fire on the very first promotion, so the mid-gc
	// stage is reachable with a single update.
	m, err := Open(os.Getenv(crashDirEnv), Options{KeepLast: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplyDeltas(context.Background(), crashMatrixDeltas()); err != nil {
		t.Fatal(err)
	}
}

func TestKillNineCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess per stage")
	}
	for _, stage := range []string{"mid-build", "mid-validate", "mid-current", "mid-gc"} {
		t.Run(stage, func(t *testing.T) {
			g := twoComponentGraph(t, crashMatrixN)
			dir := seedDir(t, g, crashMatrixB)
			refOld := fwRef(t, g)
			refNew := fwRef(t, applyToGraph(t, g, crashMatrixDeltas()))

			cmd := exec.Command(os.Args[0], "-test.run", "TestHelperCrashUpdate", "-test.v")
			cmd.Env = append(os.Environ(),
				crashEnv+"=1", crashDirEnv+"="+dir, crashStageEnv+"="+stage)
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("subprocess survived stage %s:\n%s", stage, out)
			}
			var xerr *exec.ExitError
			if !errors.As(err, &xerr) {
				t.Fatalf("subprocess: %v\n%s", err, out)
			}
			ws, ok := xerr.Sys().(syscall.WaitStatus)
			if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
				t.Fatalf("subprocess did not die of SIGKILL (status %v):\n%s", xerr, out)
			}

			// Recovery: the directory must open and serve a complete
			// generation — old or new depending on where the kill landed.
			m, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open after kill at %s: %v", stage, err)
			}
			switch cur := m.Current(); cur {
			case "gen-0001":
				checkStoreMatches(t, m, refOld)
			case "gen-0002":
				checkStoreMatches(t, m, refNew)
			default:
				t.Fatalf("current after kill at %s = %q", stage, cur)
			}

			// No .building leftovers survive Open, and no stray CURRENT
			// temp file lingers.
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), buildingSuffix) || strings.HasPrefix(e.Name(), "."+currentName+".") {
					t.Fatalf("crash leftover %s survived Open", e.Name())
				}
			}

			// The lifecycle is not wedged: the same deltas either apply
			// (kill landed pre-promotion) or report a clean no-op (kill
			// landed post-promotion); both end at the new graph's answers.
			if _, err := m.ApplyDeltas(context.Background(), crashMatrixDeltas()); err != nil {
				if !strings.Contains(err.Error(), "no-op") {
					t.Fatalf("post-crash update: %v", err)
				}
			}
			checkStoreMatches(t, m, refNew)

			// A second kill-free reopen agrees with the repaired state.
			if _, err := Open(dir, Options{}); err != nil {
				t.Fatalf("final reopen: %v", err)
			}
		})
	}
}
