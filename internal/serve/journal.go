package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// The per-device spill layout. A device directory holds its immutable
// spec, its last durable checkpoint image, and the write-ahead journal
// of batches acknowledged since that checkpoint:
//
//	<fleet dir>/<device id>/spec.json
//	<fleet dir>/<device id>/state.ckpt
//	<fleet dir>/<device id>/journal.wal
//
// Durability contract: a write batch is acknowledged to the client only
// after its journal record is synced (unless Config.DisableSync).
// Recovery rebuilds the engine from spec.json, restores state.ckpt if
// present, and replays the journal — the simulation is deterministic,
// so replay reproduces the exact acknowledged state. Checkpointing
// makes state.ckpt durable first and truncates the journal second, so
// a crash between the two merely replays batches the checkpoint
// already covers (replay skips records at or below the restored write
// count).
const (
	specFile    = "spec.json"
	ckptFile    = "state.ckpt"
	journalFile = "journal.wal"
)

// journalRecord is one acknowledged batch (or one addrsPerRecord-sized
// slice of a large address batch). A count record ("c <after>")
// records that the workload-driven write total reached after; an
// address record ("a <after> <a1> <a2> ...") records explicit addresses
// serviced in order, with after again the resulting total. Records
// carry the absolute post-batch total rather than a delta so replay is
// idempotent under the checkpoint-then-truncate race.
type journalRecord struct {
	after   uint64
	addrs   []uint64 // nil for count records
	isAddrs bool
}

// journal is the append-only write-ahead log. The owning device actor
// is the only writer; sync-before-ack makes appended records survive a
// process kill.
type journal struct {
	f    *os.File
	sync bool
	buf  []byte // record bytes of the append in progress, reused
}

// openJournal opens (creating if absent) the device's journal for
// appending.
func openJournal(dir string, sync bool) (*journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f, sync: sync}, nil
}

// appendCount journals a count batch whose serviced writes brought the
// device total to after, syncing before return.
func (j *journal) appendCount(after uint64) error {
	j.buf = append(j.buf[:0], 'c', ' ')
	j.buf = strconv.AppendUint(j.buf, after, 10)
	j.buf = append(j.buf, '\n')
	return j.append(j.buf)
}

// addrsPerRecord bounds one address record's journal line (~21 bytes
// per decimal address) — WriteAddrs accepts arbitrarily large batches
// in-process, and replay holds one record's addresses at a time. Larger
// batches are split into several records carrying intermediate
// absolute totals, written and synced as one append.
const addrsPerRecord = 1 << 12

// maxKeptBuf is the largest record buffer a journal keeps between
// appends; one huge batch must not pin its bytes for the resident's
// lifetime.
const maxKeptBuf = 1 << 20

// appendAddrs journals an explicit-address batch (the serviced prefix
// only) whose writes brought the device total to after, syncing before
// return. Batches over addrsPerRecord span multiple records; a crash
// mid-append persists only a prefix of whole records, which is safe —
// nothing in this append was acknowledged yet, and what replays is a
// true prefix of the serviced writes.
func (j *journal) appendAddrs(after uint64, addrs []uint64) error {
	buf := j.buf[:0]
	first := after - uint64(len(addrs))
	for start := 0; start < len(addrs); start += addrsPerRecord {
		end := min(start+addrsPerRecord, len(addrs))
		buf = append(buf, 'a', ' ')
		buf = strconv.AppendUint(buf, first+uint64(end), 10)
		for _, a := range addrs[start:end] {
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, a, 10)
		}
		buf = append(buf, '\n')
	}
	if cap(buf) <= maxKeptBuf {
		j.buf = buf
	}
	return j.append(buf)
}

func (j *journal) append(records []byte) error {
	if _, err := j.f.Write(records); err != nil {
		return err
	}
	if j.sync {
		return j.f.Sync()
	}
	return nil
}

// reset truncates the journal after a checkpoint became durable.
func (j *journal) reset() error {
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if j.sync {
		return j.f.Sync()
	}
	return nil
}

// close closes the journal handle.
func (j *journal) close() error { return j.f.Close() }

// readJournal parses the device's journal records in order. A torn
// final line — a crash mid-append before the sync completed — is
// dropped: its batch was never acknowledged.
func readJournal(dir string) ([]journalRecord, error) {
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return parseJournal(data)
}

// parseJournal parses journal bytes; see readJournal.
func parseJournal(data []byte) ([]journalRecord, error) {
	var recs []journalRecord
	for {
		n := bytes.IndexByte(data, '\n')
		if n < 0 {
			return recs, nil // the rest is a torn fragment (or empty)
		}
		line := data[:n]
		data = data[n+1:]
		// Lines are LF-terminated; a CR before the LF is tolerated.
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) == 0 {
			continue
		}
		rec, err := parseRecord(line)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// parseRecord decodes one journal line. Fields are separated by runs
// of spaces.
func parseRecord(line []byte) (journalRecord, error) {
	kind, rest := nextField(line)
	afterField, rest := nextField(rest)
	if afterField == nil {
		return journalRecord{}, fmt.Errorf("serve: malformed journal record %q", line)
	}
	// Journal fields are short enough that string(b) stays on the stack.
	after, err := strconv.ParseUint(string(afterField), 10, 64)
	if err != nil {
		return journalRecord{}, fmt.Errorf("serve: malformed journal record %q: %v", line, err)
	}
	switch string(kind) {
	case "c":
		if fld, _ := nextField(rest); fld != nil {
			return journalRecord{}, fmt.Errorf("serve: malformed journal record %q", line)
		}
		return journalRecord{after: after}, nil
	case "a":
		// Each address takes at least two bytes (" 0"), which bounds
		// the capacity by the line's length.
		addrs := make([]uint64, 0, min(bytes.Count(rest, space), len(rest)/2))
		for {
			var fld []byte
			if fld, rest = nextField(rest); fld == nil {
				break
			}
			a, err := strconv.ParseUint(string(fld), 10, 64)
			if err != nil {
				return journalRecord{}, fmt.Errorf("serve: malformed journal record %q: %v", line, err)
			}
			addrs = append(addrs, a)
		}
		return journalRecord{after: after, addrs: addrs, isAddrs: true}, nil
	}
	return journalRecord{}, fmt.Errorf("serve: unknown journal record type %q", kind)
}

var space = []byte{' '}

// nextField returns the first space-separated field of s (nil when
// there is none) and what follows it.
func nextField(s []byte) (field, rest []byte) {
	for len(s) > 0 && s[0] == ' ' {
		s = s[1:]
	}
	if len(s) == 0 {
		return nil, nil
	}
	n := bytes.IndexByte(s, ' ')
	if n < 0 {
		return s, nil
	}
	return s[:n], s[n:]
}

// writeFileDurable atomically replaces path with data: write to a
// temporary sibling, sync it, rename over the target, then sync the
// directory so the rename itself survives a crash.
func writeFileDurable(path string, data []byte, sync bool) error {
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		return syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory, making renames and creates inside it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
