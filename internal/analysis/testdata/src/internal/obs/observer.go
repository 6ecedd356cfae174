// Fixture: the Observer contract the observer-purity rule resolves from
// whichever tree it analyzes — here the miniature fixture module.
package obs

// Event is the stand-in lifecycle event.
type Event struct{ A, B uint64 }

// Snapshot is the sample passed to Observer.Snapshot.
type Snapshot struct{ Writes uint64 }

// Observer is the stand-in event interface.
type Observer interface {
	Event(e Event)
	Snapshot(s Snapshot)
}
