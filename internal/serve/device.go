package serve

import (
	"encoding/json"
	"fmt"

	"wlreviver/internal/sim"
)

// addrCtxCheck is the cancellation-check granularity for explicit
// address batches, mirroring RunContext's batch-boundary-only rule.
const addrCtxCheck = 1 << 12

// serveRequest services one mailbox request against the checked-out
// engine. It runs on the device's actor goroutine.
func (f *Fleet) serveRequest(d *device, r *request) {
	res, err := f.checkout(d)
	if err != nil {
		r.reply <- response{err: err}
		return
	}
	var val any
	switch r.op {
	case opWrite:
		val, err = f.doWrite(res, r)
	case opWriteAddrs:
		val, err = f.doWriteAddrs(res, r)
	case opStatus:
		val = statusOf(d.id, res.eng)
	case opMetrics:
		val, err = metricsOf(res.eng)
	case opCheckpoint:
		val, err = f.saveCheckpoint(res)
	default:
		err = fmt.Errorf("serve: unknown op %d", r.op)
	}
	f.checkin(res)
	r.reply <- response{val: val, err: err}
}

// doWrite services a count-granularity request with one RunContext
// call, which observes cancellation every runCtxBatch writes. The
// serviced prefix is journaled (sync-before-ack) whatever ended the
// run, so every write the reply acknowledges is durable.
func (f *Fleet) doWrite(res *resident, r *request) (WriteResult, error) {
	eng := res.eng
	done, ctxErr := eng.RunContext(r.ctx, r.count)
	if done > 0 {
		if err := res.jl.appendCount(eng.Writes()); err != nil {
			// Applied but not journaled: the engine diverged from the
			// durable history. Poison the resident so checkin discards
			// it and the next touch reloads the acknowledged state.
			res.broken = true
			return WriteResult{}, err
		}
		if err := f.noteAcked(res, done); err != nil {
			return WriteResult{}, err
		}
	}
	return writeReply(res, r.count, done, ctxErr)
}

// doWriteAddrs services an explicit address batch in order. Addresses
// are validated against the device's software-visible space before any
// write lands, so a bad batch is all-or-nothing.
func (f *Fleet) doWriteAddrs(res *resident, r *request) (WriteResult, error) {
	for _, a := range r.addrs {
		if a >= res.vblocks {
			return WriteResult{}, fmt.Errorf("serve: address %d out of range (device has %d blocks): %w",
				a, res.vblocks, sim.ErrBadConfig)
		}
	}
	eng := res.eng
	var done int
	var ctxErr error
	for i, a := range r.addrs {
		if i%addrCtxCheck == 0 {
			if err := r.ctx.Err(); err != nil {
				ctxErr = err
				break
			}
		}
		if !eng.WriteTagged(a, eng.Writes()) {
			break
		}
		done++
	}
	if done > 0 {
		if err := res.jl.appendAddrs(eng.Writes(), r.addrs[:done]); err != nil {
			res.broken = true
			return WriteResult{}, err
		}
		if err := f.noteAcked(res, uint64(done)); err != nil {
			return WriteResult{}, err
		}
	}
	return writeReply(res, uint64(len(r.addrs)), uint64(done), ctxErr)
}

// noteAcked accounts acknowledged writes toward the durability
// checkpoint period and rolls the checkpoint when it elapses.
func (f *Fleet) noteAcked(res *resident, n uint64) error {
	res.sinceCkpt += n
	if res.sinceCkpt >= f.cfg.CheckpointEvery {
		if _, err := f.saveCheckpoint(res); err != nil {
			return err
		}
	}
	return nil
}

// writeReply assembles a write request's result, converting a
// zero-progress halt into the typed device-state error.
func writeReply(res *resident, requested, done uint64, ctxErr error) (WriteResult, error) {
	eng := res.eng
	wr := WriteResult{
		Requested: requested,
		Done:      done,
		Writes:    eng.Writes(),
		Stopped:   eng.Stopped(),
		Crippled:  eng.Crippled(),
	}
	if ctxErr != nil {
		return wr, ctxErr
	}
	if done < requested && eng.Stopped() {
		if done > 0 {
			return wr, nil // partial service: the result reports Stopped
		}
		if eng.Crippled() {
			return wr, fmt.Errorf("serve: device %q: %w", res.d.id, ErrDeviceCrippled)
		}
		return wr, fmt.Errorf("serve: device %q: %w", res.d.id, ErrDeviceStopped)
	}
	return wr, nil
}

// statusOf snapshots the engine's observable state.
func statusOf(id string, eng *sim.Engine) DeviceStatus {
	return DeviceStatus{
		ID:             id,
		Writes:         eng.Writes(),
		Stopped:        eng.Stopped(),
		Crippled:       eng.Crippled(),
		SurvivalRate:   eng.SurvivalRate(),
		UsableFraction: eng.UsableFraction(),
		WritesPerBlock: eng.WritesPerBlock(),
	}
}

// metricsOf marshals the observer report. Metrics maps marshal with
// sorted keys, so the bytes are deterministic for a given state.
func metricsOf(eng *sim.Engine) (json.RawMessage, error) {
	m, ok := eng.Metrics()
	if !ok {
		return nil, fmt.Errorf("serve: device engine has no metrics observer")
	}
	data, err := json.Marshal(m.Report())
	if err != nil {
		return nil, err
	}
	return json.RawMessage(data), nil
}
