// Fixture: observer-purity — a type implementing obs.Observer outside
// internal/obs and internal/stats must not assign package-level state or
// call engine mutators. A type that merely looks observer-ish is out of
// scope.
package sim

import (
	"wlreviver/internal/obs"
	"wlreviver/internal/pcm"
)

// droppedEvents is package-level state an impure observer leaks into.
var droppedEvents uint64

// failureLog is an observer with its own state (fine to mutate) plus
// two purity violations.
type failureLog struct {
	count uint64
	dev   *pcm.Device
}

// Event mutates its own field (pure), a package-level counter (impure),
// and the engine (impure).
func (l *failureLog) Event(e obs.Event) {
	l.count++
	droppedEvents++  // want observer-purity "assigns to package-level droppedEvents"
	l.dev.Write(e.A) // want observer-purity "calls engine mutator"
}

// Snapshot records why one impure site is exempt.
func (l *failureLog) Snapshot(s obs.Snapshot) {
	//lint:ignore observer-purity fixture demonstrates a justified suppression
	droppedEvents = s.Writes
}

// tally looks observer-ish but implements nothing: its package-level
// writes are the engine's business, not this rule's.
type tally struct{ total uint64 }

// Event alone does not satisfy obs.Observer, so neither write is a
// finding.
func (t *tally) Event(e obs.Event) {
	droppedEvents++
	t.total++
}
