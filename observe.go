package wlreviver

import (
	"wlreviver/internal/obs"
)

// Observer receives engine lifecycle events — block and cell failures,
// revivals, remap-cache hits and misses, leveler operations, page
// retirements — as one Event type tagged with an EventKind, plus
// periodic Snapshot samples paced in simulated writes. Attach one via
// Config.Observer; observation is passive (the simulated outcome is
// byte-identical with and without it) and free when no observer is
// attached. Implement both methods for a custom sink, or use Metrics
// for a ready-made accumulator.
type Observer = obs.Observer

// Event is one engine lifecycle event: an EventKind and two words whose
// meaning each kind documents.
type Event = obs.Event

// EventKind names an engine lifecycle event; its String method returns
// the event's Metrics counter name.
type EventKind = obs.Kind

// Event kinds; obs.Kind documents each one's A and B.
const (
	EventBlockFailed     = obs.BlockFailed
	EventCellFailed      = obs.CellFailed
	EventRevived         = obs.Revived
	EventRemapCacheHit   = obs.RemapCacheHit
	EventRemapCacheMiss  = obs.RemapCacheMiss
	EventGapMoved        = obs.GapMoved
	EventRegionSwapped   = obs.RegionSwapped
	EventDecoderRemapped = obs.DecoderRemapped
	EventPageRelocated   = obs.PageRelocated
	EventPageRetired     = obs.PageRetired
)

// Snapshot is a periodic cross-layer state sample an Observer receives
// every Config.SnapshotEvery simulated writes.
type Snapshot = obs.Snapshot

// Metrics is the standard Observer: event counters by kind, the snapshot
// series, and wear-at-death distribution summaries. Retrieve it from a
// running System with System.Metrics(); serialise it with
// Metrics.Report (deterministic JSON).
type Metrics = obs.Metrics

// MetricsReport is a Metrics accumulator's serialisable form.
type MetricsReport = obs.Report

// NewMetrics returns an empty Metrics accumulator to use as
// Config.Observer.
func NewMetrics() *Metrics { return obs.NewMetrics() }
