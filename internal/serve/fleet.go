package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"wlreviver/internal/sim"
)

// Config parameterises a Fleet.
type Config struct {
	// Dir is the spill directory: one subdirectory per device holding
	// its spec, checkpoint and journal. Required.
	Dir string
	// MaxDevices caps the number of devices the fleet will host
	// (resident or spilled). 0 means unlimited.
	MaxDevices int
	// MaxResident is the LRU budget on in-memory engines. Devices over
	// the budget are checkpointed to Dir and rebuilt transparently on
	// their next request. 0 defaults to 64. Devices pinned by an
	// in-flight request are never evicted, so the instantaneous count
	// may briefly exceed the budget under load.
	MaxResident int
	// MailboxDepth is the per-device request queue bound — the fleet's
	// admission control. A request arriving at a full mailbox is
	// rejected with ErrBusy. 0 defaults to 32.
	MailboxDepth int
	// CheckpointEvery is the durability checkpoint period in
	// acknowledged writes per device: once a device accumulates this
	// many journaled writes its checkpoint is rewritten and the journal
	// truncated, bounding recovery replay. 0 defaults to 1<<18.
	CheckpointEvery uint64
	// DisableSync skips every fsync (tests on slow filesystems). The
	// kill -9 durability contract only holds with syncing on.
	DisableSync bool
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.MaxResident <= 0 {
		c.MaxResident = 64
	}
	if c.MailboxDepth <= 0 {
		c.MailboxDepth = 32
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1 << 18
	}
	return c
}

// Fleet hosts a set of simulated PCM devices, each owned by a
// dedicated actor goroutine and paged between memory and the spill
// directory under the MaxResident budget. All fleet bookkeeping —
// device registry, residency table, logical LRU clock — lives behind
// one mutex; engines themselves are only ever touched by their owning
// actor while pinned.
type Fleet struct {
	cfg Config

	mu       sync.Mutex
	devices  map[string]*device
	resident map[string]*resident
	clock    uint64 // logical recency counter (no wall-clock in this package)
	closed   bool

	quit chan struct{}
	wg   sync.WaitGroup
}

// device is a registered device's identity: immutable spec, spill
// directory and request mailbox. The engine itself lives in the
// residency table and may be absent (spilled).
type device struct {
	id   string
	dir  string
	spec DeviceSpec
	mbox chan *request

	// deleted is set (under Fleet.mu) when the device is being torn
	// down, so no further requests are admitted.
	deleted bool

	// diskMu serialises on-disk state transitions that can race across
	// actors: a spill (runs on the evicting actor's goroutine) against
	// this device's own reload or deletion.
	diskMu sync.Mutex

	// cur (guarded by Fleet.mu) is the resident that owns the device's
	// on-disk state. An evicted resident whose spill loses the race with
	// the device's own reload is no longer cur and must not touch the
	// checkpoint or journal files — the reloaded engine already carries
	// (and keeps journaling) every write the stale image would save.
	cur *resident
}

// resident is an in-memory engine plus its open journal.
type resident struct {
	d       *device
	eng     *sim.Engine
	jl      *journal
	vblocks uint64 // software-visible address space, for addr validation

	pinned    bool   // owned by an in-flight request; not evictable
	lastTouch uint64 // fleet clock at last checkin
	sinceCkpt uint64 // acked writes since the last durable checkpoint

	// broken is set by the owning actor when a journal append failed
	// after writes were already applied: the engine has diverged from
	// the durable history and must be discarded — without a checkpoint
	// — so the next touch reloads the exact acknowledged state.
	broken bool
}

// request ops.
type op int

const (
	opWrite op = iota
	opWriteAddrs
	opStatus
	opMetrics
	opCheckpoint
	opDelete
)

// request is one mailbox message; reply is buffered (capacity 1) so
// the actor never blocks answering a caller that gave up.
type request struct {
	op    op
	ctx   context.Context
	count uint64
	addrs []uint64
	reply chan response
}

type response struct {
	val any
	err error
}

// WriteResult reports how a write request was serviced. Done < Requested
// means the device reached end of life (or was crippled, or the request
// context was cancelled) partway through; the serviced prefix is
// acknowledged and durable either way.
type WriteResult struct {
	Requested uint64 `json:"requested"`
	Done      uint64 `json:"done"`
	Writes    uint64 `json:"writes"`
	Stopped   bool   `json:"stopped"`
	Crippled  bool   `json:"crippled"`
}

// DeviceStatus is a device's observable state.
type DeviceStatus struct {
	ID             string  `json:"id"`
	Writes         uint64  `json:"writes"`
	Stopped        bool    `json:"stopped"`
	Crippled       bool    `json:"crippled"`
	SurvivalRate   float64 `json:"survival_rate"`
	UsableFraction float64 `json:"usable_fraction"`
	WritesPerBlock float64 `json:"writes_per_block"`
}

// Health is the fleet-level summary.
type Health struct {
	Devices  int `json:"devices"`
	Resident int `json:"resident"`
}

// validID keeps device IDs filesystem- and URL-safe.
var validID = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// Open creates a fleet over the spill directory, recovering every
// device a previous process left there: each subdirectory with a
// spec.json is re-registered and its actor started. Engines are
// rebuilt lazily on first touch (restore checkpoint, replay journal),
// so recovery cost is paid per touched device, not at startup.
func Open(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required: %w", sim.ErrBadConfig)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:      cfg,
		devices:  make(map[string]*device),
		resident: make(map[string]*resident),
		quit:     make(chan struct{}),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(cfg.Dir, e.Name(), specFile))
		if err != nil {
			if os.IsNotExist(err) {
				continue // interrupted create or delete; not a device
			}
			return nil, err
		}
		var spec DeviceSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("serve: device %q: corrupt spec.json: %v", e.Name(), err)
		}
		d := f.registerLocked(e.Name(), spec)
		f.spawn(d)
	}
	return f, nil
}

// registerLocked adds a device to the registry. Callers own f.mu or
// have exclusive access (Open).
func (f *Fleet) registerLocked(id string, spec DeviceSpec) *device {
	d := &device{
		id:   id,
		dir:  filepath.Join(f.cfg.Dir, id),
		spec: spec,
		mbox: make(chan *request, f.cfg.MailboxDepth),
	}
	f.devices[id] = d
	return d
}

// Create registers a new device from its spec, persists the spec, and
// starts its actor. The engine is built eagerly — both to validate the
// spec synchronously and to prime residency for the first writes.
func (f *Fleet) Create(id string, spec DeviceSpec) error {
	if !validID.MatchString(id) {
		return fmt.Errorf("serve: invalid device id %q (want %s): %w", id, validID, sim.ErrBadConfig)
	}
	cfg, err := spec.config()
	if err != nil {
		return err
	}
	eng, err := buildEngine(spec)
	if err != nil {
		return err
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	if _, ok := f.devices[id]; ok {
		f.mu.Unlock()
		return fmt.Errorf("serve: device %q: %w", id, ErrDeviceExists)
	}
	if f.cfg.MaxDevices > 0 && len(f.devices) >= f.cfg.MaxDevices {
		f.mu.Unlock()
		return fmt.Errorf("serve: %d devices: %w", len(f.devices), ErrFleetFull)
	}
	d := f.registerLocked(id, spec)
	f.mu.Unlock()

	if err := f.materialize(d, eng, cfg.Blocks); err != nil {
		f.unregister(d)
		return err
	}
	f.spawn(d)
	return nil
}

// materialize writes the device's durable identity and inserts its
// fresh engine into the residency table.
func (f *Fleet) materialize(d *device, eng *sim.Engine, vblocks uint64) error {
	durable := !f.cfg.DisableSync
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d.spec, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileDurable(filepath.Join(d.dir, specFile), data, durable); err != nil {
		return err
	}
	if durable {
		if err := syncDir(f.cfg.Dir); err != nil {
			return err
		}
	}
	jl, err := openJournal(d.dir, durable)
	if err != nil {
		return err
	}
	res := &resident{d: d, eng: eng, jl: jl, vblocks: vblocks}
	f.mu.Lock()
	f.clock++
	res.lastTouch = f.clock
	f.resident[d.id] = res
	d.cur = res
	victims := f.victimsLocked()
	f.mu.Unlock()
	f.spillAll(victims)
	return nil
}

// unregister rolls back a failed Create: the device never served a
// request, so queued senders (admitted between register and failure)
// are answered with ErrUnknownDevice.
func (f *Fleet) unregister(d *device) {
	f.mu.Lock()
	d.deleted = true
	delete(f.devices, d.id)
	f.drainLocked(d, fmt.Errorf("serve: device %q: %w", d.id, ErrUnknownDevice))
	f.mu.Unlock()
}

// drainLocked empties a dead device's mailbox under f.mu. Admission
// enqueues under the same mutex after checking d.deleted, so once the
// flag is set this drain observes every admitted request.
func (f *Fleet) drainLocked(d *device, err error) {
	for {
		select {
		case r := <-d.mbox:
			r.reply <- response{err: err}
		default:
			return
		}
	}
}

// post admits a request into the device's mailbox and waits for the
// reply. A full mailbox rejects immediately with ErrBusy (admission
// control); a cancelled context abandons the wait but the actor still
// services the request (its own ctx makes write work cancel promptly).
func (f *Fleet) post(ctx context.Context, id string, r *request) (any, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	d, ok := f.devices[id]
	if !ok || d.deleted {
		f.mu.Unlock()
		return nil, fmt.Errorf("serve: device %q: %w", id, ErrUnknownDevice)
	}
	select {
	case d.mbox <- r:
		f.mu.Unlock()
	default:
		f.mu.Unlock()
		return nil, fmt.Errorf("serve: device %q: %w", id, ErrBusy)
	}
	select {
	case resp := <-r.reply:
		return resp.val, resp.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-f.quit:
		return nil, ErrClosed
	}
}

// Write services count workload-driven writes on the device.
func (f *Fleet) Write(ctx context.Context, id string, count uint64) (WriteResult, error) {
	v, err := f.post(ctx, id, &request{op: opWrite, ctx: ctx, count: count, reply: make(chan response, 1)})
	if wr, ok := v.(WriteResult); ok {
		return wr, err
	}
	return WriteResult{}, err
}

// WriteAddrs services explicit software-address writes, in order.
func (f *Fleet) WriteAddrs(ctx context.Context, id string, addrs []uint64) (WriteResult, error) {
	v, err := f.post(ctx, id, &request{op: opWriteAddrs, ctx: ctx, addrs: addrs, reply: make(chan response, 1)})
	if wr, ok := v.(WriteResult); ok {
		return wr, err
	}
	return WriteResult{}, err
}

// Status reports the device's observable state (loading it if spilled).
func (f *Fleet) Status(ctx context.Context, id string) (DeviceStatus, error) {
	v, err := f.post(ctx, id, &request{op: opStatus, ctx: ctx, reply: make(chan response, 1)})
	if st, ok := v.(DeviceStatus); ok {
		return st, err
	}
	return DeviceStatus{}, err
}

// Metrics returns the device's observer report as deterministic JSON.
func (f *Fleet) Metrics(ctx context.Context, id string) (json.RawMessage, error) {
	v, err := f.post(ctx, id, &request{op: opMetrics, ctx: ctx, reply: make(chan response, 1)})
	if raw, ok := v.(json.RawMessage); ok {
		return raw, err
	}
	return nil, err
}

// Checkpoint makes the device's checkpoint durable, truncates its
// journal, and returns the image.
func (f *Fleet) Checkpoint(ctx context.Context, id string) ([]byte, error) {
	v, err := f.post(ctx, id, &request{op: opCheckpoint, ctx: ctx, reply: make(chan response, 1)})
	if img, ok := v.([]byte); ok {
		return img, err
	}
	return nil, err
}

// Delete tears the device down: its actor exits, its engine is
// discarded without a checkpoint, and its spill directory is removed.
func (f *Fleet) Delete(ctx context.Context, id string) error {
	_, err := f.post(ctx, id, &request{op: opDelete, ctx: ctx, reply: make(chan response, 1)})
	return err
}

// List returns the registered device IDs, sorted.
func (f *Fleet) List() []string {
	f.mu.Lock()
	ids := make([]string, 0, len(f.devices))
	for id := range f.devices {
		ids = append(ids, id)
	}
	f.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// Health returns the fleet-level device and residency counts.
func (f *Fleet) Health() Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Health{Devices: len(f.devices), Resident: len(f.resident)}
}

// Close shuts the fleet down gracefully: actors stop, then every
// resident engine is checkpointed to the spill directory, so a
// subsequent Open resumes without journal replay. In-flight callers
// receive ErrClosed.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	close(f.quit)
	f.wg.Wait()

	f.mu.Lock()
	victims := make([]*resident, 0, len(f.resident))
	ids := make([]string, 0, len(f.resident))
	for id := range f.resident {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		victims = append(victims, f.resident[id])
		delete(f.resident, id)
	}
	f.mu.Unlock()
	var firstErr error
	for _, v := range victims {
		if err := f.spill(v); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// checkout pins the device's engine, rebuilding it from the spill
// directory when evicted. Only the device's own actor calls checkout,
// so a given device is never loaded twice concurrently.
func (f *Fleet) checkout(d *device) (*resident, error) {
	f.mu.Lock()
	if res, ok := f.resident[d.id]; ok {
		res.pinned = true
		f.mu.Unlock()
		return res, nil
	}
	f.mu.Unlock()
	res, err := f.load(d)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	res.pinned = true
	f.resident[d.id] = res
	f.mu.Unlock()
	return res, nil
}

// checkin unpins after a request, bumps recency, and synchronously
// evicts the coldest unpinned engines while the fleet is over budget.
// A broken resident (journal append failed mid-request) is discarded
// instead: no checkpoint, since its engine state diverged from the
// durable history; the next touch reloads exactly the acknowledged
// state from checkpoint + journal.
func (f *Fleet) checkin(res *resident) {
	f.mu.Lock()
	res.pinned = false
	f.clock++
	res.lastTouch = f.clock
	if res.broken {
		delete(f.resident, res.d.id)
		if res.d.cur == res {
			res.d.cur = nil
		}
	}
	victims := f.victimsLocked()
	f.mu.Unlock()
	if res.broken {
		_ = res.jl.close()
	}
	f.spillAll(victims)
}

// victimsLocked removes and returns the coldest unpinned residents
// until the budget holds. lastTouch values are unique (the clock is a
// counter under f.mu), so victim selection is deterministic.
func (f *Fleet) victimsLocked() []*resident {
	var victims []*resident
	for len(f.resident) > f.cfg.MaxResident {
		var coldest *resident
		for _, r := range f.resident {
			if r.pinned {
				continue
			}
			if coldest == nil || r.lastTouch < coldest.lastTouch {
				coldest = r
			}
		}
		if coldest == nil {
			return victims // everything left is pinned; retry at next checkin
		}
		delete(f.resident, coldest.d.id)
		victims = append(victims, coldest)
	}
	return victims
}

// spillAll spills each victim, logging nowhere: a failed spill loses
// no acknowledged data (the journal still covers it) but the error is
// surfaced on the device's next load if the directory is truly broken.
func (f *Fleet) spillAll(victims []*resident) {
	for _, v := range victims {
		// Best effort: the journal remains authoritative if this fails.
		_ = f.spill(v)
	}
}

// spill checkpoints an evicted engine to its device directory and
// closes the journal. It runs on whichever actor triggered the
// eviction; diskMu keeps it exclusive with the device's own reload or
// deletion, and the ownership check makes it a no-op when the device
// was reloaded (or deleted) before the spill got the lock — writing
// the eviction-time image then would clobber the new owner's
// checkpoint and truncate journal records of writes it has since
// acknowledged.
func (f *Fleet) spill(res *resident) error {
	res.d.diskMu.Lock()
	defer res.d.diskMu.Unlock()
	f.mu.Lock()
	stale := res.d.cur != res
	f.mu.Unlock()
	if stale {
		// The journal already covers every write this image would
		// save; just drop the superseded handle.
		return res.jl.close()
	}
	_, err := f.saveCheckpointLocked(res)
	if cerr := res.jl.close(); err == nil {
		err = cerr
	}
	return err
}

// saveCheckpoint makes the engine's current state durable under the
// device's disk lock, excluding any in-flight spill of a predecessor
// resident.
func (f *Fleet) saveCheckpoint(res *resident) ([]byte, error) {
	res.d.diskMu.Lock()
	defer res.d.diskMu.Unlock()
	return f.saveCheckpointLocked(res)
}

// saveCheckpointLocked writes the checkpoint and resets the journal:
// image first (atomic replace + fsync), truncate second, so a crash
// between the two only costs redundant replay. Callers hold diskMu.
func (f *Fleet) saveCheckpointLocked(res *resident) ([]byte, error) {
	img, err := res.eng.Checkpoint()
	if err != nil {
		return nil, err
	}
	if err := writeFileDurable(filepath.Join(res.d.dir, ckptFile), img, !f.cfg.DisableSync); err != nil {
		return nil, err
	}
	if err := res.jl.reset(); err != nil {
		return nil, err
	}
	res.sinceCkpt = 0
	return img, nil
}

// load rebuilds a spilled device: engine from spec, checkpoint overlay
// if present, then journal replay. The simulation is deterministic, so
// replaying the journaled batches reproduces the exact acknowledged
// state the process lost.
func (f *Fleet) load(d *device) (*resident, error) {
	d.diskMu.Lock()
	defer d.diskMu.Unlock()
	cfg, err := d.spec.config()
	if err != nil {
		return nil, err
	}
	eng, err := buildEngine(d.spec)
	if err != nil {
		return nil, err
	}
	img, err := os.ReadFile(filepath.Join(d.dir, ckptFile))
	if err == nil {
		if err := eng.RestoreCheckpoint(img); err != nil {
			return nil, fmt.Errorf("serve: device %q: restoring checkpoint: %w", d.id, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	ckptWrites := eng.Writes()
	recs, err := readJournal(d.dir)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if rec.after <= eng.Writes() {
			continue // already covered by the checkpoint
		}
		if rec.isAddrs {
			for _, a := range rec.addrs {
				if !eng.WriteTagged(a, eng.Writes()) {
					break
				}
			}
		} else {
			eng.RunN(rec.after - eng.Writes())
		}
	}
	jl, err := openJournal(d.dir, !f.cfg.DisableSync)
	if err != nil {
		return nil, err
	}
	res := &resident{
		d: d, eng: eng, jl: jl, vblocks: cfg.Blocks,
		sinceCkpt: eng.Writes() - ckptWrites,
	}
	// Take disk ownership before releasing diskMu, so a pending spill
	// of the evicted predecessor observes the handover no matter how
	// its lock acquisition interleaves with this reload.
	f.mu.Lock()
	d.cur = res
	f.mu.Unlock()
	return res, nil
}
