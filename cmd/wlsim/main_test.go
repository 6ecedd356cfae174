package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// wlsimBin is the CLI under test, built once by TestMain so the tests
// exercise the real binary boundary (flags, exit codes).
var wlsimBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "wlsimbin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wlsimBin = filepath.Join(dir, "wlsim")
	if out, err := exec.Command("go", "build", "-o", wlsimBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building wlsim: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// wlsim runs the built binary and returns its stdout, stderr and exit
// code.
func wlsim(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(wlsimBin, args...)
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	if err != nil {
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) {
			t.Fatalf("wlsim %v: %v", args, err)
		}
		return string(out), errBuf.String(), exitErr.ExitCode()
	}
	return string(out), errBuf.String(), 0
}

// small is a geometry that wears out in well under a second.
var small = []string{"-blocks", "4096", "-page-blocks", "16", "-endurance", "300", "-writes", "200000"}

// Every leveler is selectable by the display name wlserved's device spec
// takes, including WoLFRaM and SoftWear.
func TestLevelerSelectors(t *testing.T) {
	for _, lv := range []string{"WFR", "SW"} {
		out, stderr, code := wlsim(t, append(small, "-leveler", lv, "-protector", "WLR", "-ecc", "ECP6")...)
		if code != 0 {
			t.Fatalf("-leveler %s: exit %d: %s", lv, code, stderr)
		}
		if want := "system: ECP6 + " + lv + " + WLR, 4096 blocks"; !strings.Contains(out, want) {
			t.Errorf("-leveler %s: stdout lacks %q:\n%s", lv, want, out)
		}
		if !strings.Contains(out, "writes serviced:    200704") {
			t.Errorf("-leveler %s: did not service the write budget:\n%s", lv, out)
		}
	}
}

// An unknown selector exits non-zero and names the known values.
func TestUnknownSelector(t *testing.T) {
	for _, c := range []struct{ flag, value, known string }{
		{"-leveler", "startgap", "(known: none, SG, SR, SG-R, WFR, SW)"},
		{"-protector", "DRM", "(known: none, WLR, FREE-p, LLS)"},
		{"-ecc", "ecp6", "(known: ECP6, ECP1, PAYG)"},
	} {
		_, stderr, code := wlsim(t, append(small, c.flag, c.value)...)
		if code == 0 {
			t.Errorf("%s %s: exit 0, want non-zero", c.flag, c.value)
		}
		if !strings.Contains(stderr, c.known) {
			t.Errorf("%s %s: stderr %q lacks %q", c.flag, c.value, stderr, c.known)
		}
	}
}

// A page size that is not a power of two is a configuration error.
func TestPageBlocksPowerOfTwo(t *testing.T) {
	_, stderr, code := wlsim(t, "-blocks", "4032", "-page-blocks", "24", "-endurance", "300", "-writes", "1000")
	if code == 0 {
		t.Fatal("-page-blocks 24: exit 0, want non-zero")
	}
	if !strings.Contains(stderr, "power of two") {
		t.Errorf("-page-blocks 24: stderr %q does not name the rule", stderr)
	}
}
