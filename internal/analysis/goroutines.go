package analysis

import (
	"go/ast"
	"strings"
)

// goroutineFiles are the only non-test files allowed to start
// goroutines: the sim fan-out loop that spreads experiments across
// engines and one engine's address-space shards within a batch, the
// fleet daemon's per-device actor spawner, and the two serving binaries
// (HTTP listener and load generator). Each keeps determinism a
// different way: the sim fan-out merges results in a deterministic
// order after a barrier; the fleet actor is the sole
// toucher of its device's engine, so every simulation still runs
// single-threaded; the binaries only orchestrate I/O around those.
var goroutineFiles = []string{
	"internal/sim/runner.go",
	"internal/serve/actor.go",
	"cmd/wlserved/main.go",
	"cmd/wlload/main.go",
}

// ConfinedGoroutines bans `go` statements outside the allowlisted
// scheduler/actor files and _test.go files. All concurrency flows
// through those files, whose ordered merges (sim fan-out) or exclusive
// per-device ownership (serve actors) are what keep concurrent output
// byte-identical to a serial run; an ad-hoc goroutine anywhere else can
// reorder writes into shared results and break that equivalence in ways
// the race detector only catches probabilistically.
type ConfinedGoroutines struct{}

// Name implements Rule.
func (*ConfinedGoroutines) Name() string { return "confined-goroutines" }

// Doc implements Rule.
func (*ConfinedGoroutines) Doc() string {
	return "go statements are confined to " + strings.Join(goroutineFiles, ", ") + " and _test.go files"
}

// Check implements Rule.
func (*ConfinedGoroutines) Check(f *File, report func(ast.Node, string, ...any)) {
	if f.IsTest() {
		return
	}
	for _, allowed := range goroutineFiles {
		if f.Path == allowed {
			return
		}
	}
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			report(g, "go statement outside %s: route concurrency through the sim fan-out or the serve actor spawner", strings.Join(goroutineFiles, ", "))
		}
		return true
	})
}
