package obs

import (
	"fmt"
	"testing"
)

// logObserver renders each delivered event as one line, so replay tests
// can compare exact sequences.
type logObserver struct{ lines []string }

func (l *logObserver) Event(e Event) {
	l.lines = append(l.lines, fmt.Sprintf("%s %d %d", e.Kind, e.A, e.B))
}

func (l *logObserver) Snapshot(s Snapshot) {
	l.lines = append(l.lines, fmt.Sprintf("snap %d", s.Writes))
}

// TestRecorderReplayRebases drives one event of each kind through a
// Recorder, with a snapshot between them, and checks the replayed
// stream: recording order preserved, device addresses shifted by the DA
// offset, pages and frames by the page offset, and wear and failure
// counts, unused fields and snapshots passed through untouched.
func TestRecorderReplayRebases(t *testing.T) {
	cases := []struct {
		in   Event
		want string
	}{
		{Event{Kind: BlockFailed, A: 3, B: 99}, "block_failed 103 99"},
		{Event{Kind: CellFailed, A: 4, B: 7}, "cell_failed 104 7"},
		{Event{Kind: Revived, A: 5, B: 6}, "revived 105 106"},
		{Event{Kind: RemapCacheHit, A: 8}, "remap_cache_hit 108 0"},
		{Event{Kind: RemapCacheMiss, A: 9}, "remap_cache_miss 109 0"},
		{Event{Kind: GapMoved, A: 10}, "gap_moved 110 0"},
		{Event{Kind: RegionSwapped, A: 11, B: 12}, "region_swapped 111 112"},
		{Event{Kind: DecoderRemapped, A: 13, B: 14}, "decoder_remapped 113 114"},
		{Event{Kind: PageRelocated, A: 3, B: 5}, "page_relocated 23 25"},
		{Event{Kind: PageRetired, A: 2}, "page_retired 22 0"},
	}
	if len(cases) != int(numKinds) {
		t.Fatalf("table covers %d kinds, the enum has %d", len(cases), numKinds)
	}
	r := &Recorder{}
	var want []string
	for i, c := range cases {
		if i == len(cases)/2 {
			r.Snapshot(Snapshot{Writes: 1234})
			want = append(want, "snap 1234")
		}
		r.Event(c.in)
		want = append(want, c.want)
	}
	if r.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", r.Len(), len(want))
	}

	var got logObserver
	r.Replay(&got, Rebase{DA: 100, Page: 20})
	if len(got.lines) != len(want) {
		t.Fatalf("replayed %d events, want %d: %v", len(got.lines), len(want), got.lines)
	}
	for i := range want {
		if got.lines[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, got.lines[i], want[i])
		}
	}

	// Replay leaves the buffer intact; Reset empties it.
	if r.Len() != len(want) {
		t.Fatalf("Replay consumed the buffer: Len() = %d", r.Len())
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Reset left %d events", r.Len())
	}
	var after logObserver
	r.Replay(&after, Rebase{})
	if len(after.lines) != 0 {
		t.Fatalf("replay after Reset delivered %v", after.lines)
	}
}

// TestRecorderZeroRebase: a zero Rebase is the identity, so a Recorder
// inserted between a layer and its observer is invisible.
func TestRecorderZeroRebase(t *testing.T) {
	r := &Recorder{}
	var direct, relayed logObserver
	feed := func(o Observer) {
		o.Event(Event{Kind: BlockFailed, A: 1, B: 2})
		o.Event(Event{Kind: GapMoved, A: 3})
		o.Snapshot(Snapshot{Writes: 5})
		o.Event(Event{Kind: PageRetired, A: 4})
	}
	feed(&direct)
	feed(r)
	r.Replay(&relayed, Rebase{})
	if len(direct.lines) != len(relayed.lines) {
		t.Fatalf("relayed %d events, want %d", len(relayed.lines), len(direct.lines))
	}
	for i := range direct.lines {
		if direct.lines[i] != relayed.lines[i] {
			t.Errorf("event %d = %q, want %q", i, relayed.lines[i], direct.lines[i])
		}
	}
}
