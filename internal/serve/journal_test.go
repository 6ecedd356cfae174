package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fixtureAppends replays the append sequence that wrote
// testdata/journal.wal: count records around a 3×addrsPerRecord+17
// address batch (spanning four records, with 20-digit addresses), a
// short batch and a 20-digit total.
func fixtureAppends(jl *journal) error {
	total := uint64(4096)
	if err := jl.appendCount(total); err != nil {
		return err
	}
	addrs := fixtureAddrs()
	total += uint64(len(addrs))
	if err := jl.appendAddrs(total, addrs); err != nil {
		return err
	}
	total++
	if err := jl.appendCount(total); err != nil {
		return err
	}
	total += 3
	if err := jl.appendAddrs(total, []uint64{0, 7, 4095}); err != nil {
		return err
	}
	return jl.appendCount(18446744073709000000)
}

// fixtureAddrs is the fixture's large address batch.
func fixtureAddrs() []uint64 {
	addrs := make([]uint64, 3*addrsPerRecord+17)
	for i := range addrs {
		addrs[i] = uint64(i * 31)
		if i%97 == 0 {
			addrs[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
	}
	addrs[1] = math.MaxUint64
	return addrs
}

// TestJournalFixture pins the on-disk format: testdata/journal.wal was
// written by the strconv.FormatUint formatter this package used before
// its records were appended in place. Today's appends must produce the
// same bytes, and the fixture must replay to the records those appends
// describe.
func TestJournalFixture(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", journalFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jl, err := openJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fixtureAppends(jl); err != nil {
		t.Fatal(err)
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, fixture) {
		t.Fatalf("journal bytes moved: wrote %d bytes, fixture has %d", len(written), len(fixture))
	}
	recs, err := readJournal("testdata")
	if err != nil {
		t.Fatal(err)
	}
	want := []journalRecord{{after: 4096}}
	addrs := fixtureAddrs()
	for start := 0; start < len(addrs); start += addrsPerRecord {
		end := min(start+addrsPerRecord, len(addrs))
		want = append(want, journalRecord{after: 4096 + uint64(end), addrs: addrs[start:end], isAddrs: true})
	}
	total := 4096 + uint64(len(addrs))
	want = append(want,
		journalRecord{after: total + 1},
		journalRecord{after: total + 4, addrs: []uint64{0, 7, 4095}, isAddrs: true},
		journalRecord{after: 18446744073709000000})
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("fixture replays to %d records, want %d records", len(recs), len(want))
	}
}

// referenceParseJournal is the string-based reader parseJournal
// replaced, kept as its specification: bufio.Scanner lines (which drop
// a CR before the LF), fields split on runs of spaces, and
// strconv.ParseUint numbers.
func referenceParseJournal(data []byte) ([]journalRecord, error) {
	n := bytes.LastIndexByte(data, '\n')
	if n < 0 {
		return nil, nil
	}
	var recs []journalRecord
	sc := bufio.NewScanner(bytes.NewReader(data[:n+1]))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var fields []string
		for _, fld := range strings.Split(line, " ") {
			if fld != "" {
				fields = append(fields, fld)
			}
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("serve: malformed journal record %q", line)
		}
		after, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("serve: malformed journal record %q: %v", line, err)
		}
		switch fields[0] {
		case "c":
			if len(fields) != 2 {
				return nil, fmt.Errorf("serve: malformed journal record %q", line)
			}
			recs = append(recs, journalRecord{after: after})
			continue
		case "a":
			addrs := make([]uint64, 0, len(fields)-2)
			for _, fld := range fields[2:] {
				a, err := strconv.ParseUint(fld, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("serve: malformed journal record %q: %v", line, err)
				}
				addrs = append(addrs, a)
			}
			recs = append(recs, journalRecord{after: after, addrs: addrs, isAddrs: true})
			continue
		}
		return nil, fmt.Errorf("serve: unknown journal record type %q", fields[0])
	}
	return recs, sc.Err()
}

// FuzzJournalReplay checks journal replay on arbitrary bytes and the
// append/replay round trip:
//
//   - parseJournal agrees with referenceParseJournal — records, torn
//     tail and error message — and never panics;
//   - every truncation of the input replays exactly as its whole lines
//     do (a torn final line is dropped, never parsed);
//   - records built from the fuzz bytes, written by appendCount and
//     appendAddrs, replay to themselves.
func FuzzJournalReplay(f *testing.F) {
	dir := f.TempDir()
	jl, err := openJournal(dir, false)
	if err != nil {
		f.Fatal(err)
	}
	defer jl.close()
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := parseJournal(data)
		ref, refErr := referenceParseJournal(data)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(got, ref) {
			t.Fatalf("%q: replays to %+v, %v; the reference reads %+v, %v", data, got, err, ref, refErr)
		}

		step := max(1, len(data)/256)
		for k := 0; k <= len(data); k += step {
			got, gotErr := parseJournal(data[:k])
			whole := data[:bytes.LastIndexByte(data[:k], '\n')+1]
			want, wantErr := parseJournal(whole)
			if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("cut at %d replays %d records (%v), its whole lines %d (%v)", k, len(got), gotErr, len(want), wantErr)
			}
		}

		if err := jl.reset(); err != nil {
			t.Fatal(err)
		}
		var want []journalRecord
		for b := data; len(b) >= 9; {
			after := binary.LittleEndian.Uint64(b[1:])
			if b[0]&1 == 0 {
				if err := jl.appendCount(after); err != nil {
					t.Fatal(err)
				}
				want = append(want, journalRecord{after: after})
				b = b[9:]
				continue
			}
			n := min(int(b[0]>>1), (len(b)-9)/8)
			if n == 0 {
				b = b[9:]
				continue // an empty batch appends nothing
			}
			addrs := make([]uint64, n)
			for i := range addrs {
				addrs[i] = binary.LittleEndian.Uint64(b[9+8*i:])
			}
			if err := jl.appendAddrs(after, addrs); err != nil {
				t.Fatal(err)
			}
			want = append(want, journalRecord{after: after, addrs: addrs, isAddrs: true})
			b = b[9+8*n:]
		}
		if got, err = readJournal(dir); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("appended %d records, replayed %d: %+v", len(want), len(got), got)
		}
	})
}
