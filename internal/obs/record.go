package obs

// Recorder is an Observer that buffers every event it receives instead
// of acting on it, so a batch of events can be replayed later — in a
// caller-chosen order — into another Observer. The sharded engine gives
// each address-space shard its own Recorder: shard sub-simulations then
// run concurrently without sharing the user's observer, and at every
// batch-boundary merge the buffered events are replayed shard by shard
// in shard-index order, making the user-visible event stream independent
// of how the shards interleaved on the pool's goroutines.
//
// A Recorder is confined to one shard's simulation goroutine between
// merges and to the merging goroutine during Replay; it needs no
// locking, exactly like every other Observer.
type Recorder struct {
	events []Event
	snaps  []Snapshot
}

// snapshotMark is the Kind of a buffered snapshot's place in the event
// order; its A indexes snaps. It lies past every Kind, so no Observer
// ever receives it.
const snapshotMark = numKinds

// space is the identifier space an Event field lives in, which decides
// the offset Replay adds to it.
type space uint8

const (
	spaceNone space = iota // a wear or failure count: passed through
	spaceDA                // a device address (or Revived's shadow PA)
	spacePage              // an OS page or a SoftWear device frame
)

// fieldSpaces gives, per Kind, the spaces of A and B. A field a kind
// leaves unused is spaceNone, so it replays as recorded.
var fieldSpaces = [numKinds][2]space{
	BlockFailed:     {spaceDA, spaceNone},
	CellFailed:      {spaceDA, spaceNone},
	Revived:         {spaceDA, spaceDA},
	RemapCacheHit:   {spaceDA, spaceNone},
	RemapCacheMiss:  {spaceDA, spaceNone},
	GapMoved:        {spaceDA, spaceNone},
	RegionSwapped:   {spaceDA, spaceDA},
	DecoderRemapped: {spaceDA, spaceDA},
	PageRelocated:   {spacePage, spacePage},
	PageRetired:     {spacePage, spaceNone},
}

// Rebase shifts shard-local identifiers into the enclosing chip's global
// spaces during Replay. A shard simulates device addresses and pages
// starting at zero; the sharded engine passes the shard's base offsets
// so the replayed stream reads as one chip.
type Rebase struct {
	// DA is added to every device address.
	DA uint64
	// Page is added to every OS page number.
	Page uint64
}

// Len returns the number of buffered events.
func (r *Recorder) Len() int { return len(r.events) }

// Reset discards the buffered events, keeping capacity.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.snaps = r.snaps[:0]
}

// Replay delivers the buffered events to o in recording order, rebasing
// shard-local identifiers through rb. Snapshots carry no addresses, so
// they replay unrebased. The buffer is left intact; callers pair Replay
// with Reset.
func (r *Recorder) Replay(o Observer, rb Rebase) {
	offset := [...]uint64{spaceNone: 0, spaceDA: rb.DA, spacePage: rb.Page}
	for _, e := range r.events {
		if e.Kind == snapshotMark {
			o.Snapshot(r.snaps[e.A])
			continue
		}
		sp := fieldSpaces[e.Kind]
		e.A += offset[sp[0]]
		e.B += offset[sp[1]]
		o.Event(e)
	}
}

// Event implements Observer.
func (r *Recorder) Event(e Event) { r.events = append(r.events, e) }

// Snapshot implements Observer.
func (r *Recorder) Snapshot(s Snapshot) {
	r.events = append(r.events, Event{Kind: snapshotMark, A: uint64(len(r.snaps))})
	r.snaps = append(r.snaps, s)
}

var _ Observer = (*Recorder)(nil)
