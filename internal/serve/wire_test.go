package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzWriteBody is the differential check of the write-body codec
// against encoding/json, its specification:
//
//   - a body the direct parser accepts, json.Unmarshal accepts too, with
//     an identical writeRequest (so routing a body to either decoder
//     cannot change what the daemon does);
//   - decodeWriteRequest agrees with json.Unmarshal on every body;
//   - the request built from the fuzz bytes encodes to exactly
//     json.Marshal's bytes, which the direct parser accepts back.
//
// The seed corpus in testdata/fuzz/FuzzWriteBody holds the canonical
// forms, whitespace, and bodies the direct parser must leave to
// encoding/json: both keys, duplicate and differently cased keys,
// leading zeros, overflow, signs, fractions, null and truncations.
func FuzzWriteBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		fast, ok := parseWriteBody(body)
		var spec writeRequest
		specErr := json.Unmarshal(body, &spec)
		if ok {
			if specErr != nil {
				t.Fatalf("direct parser accepted %q, json.Unmarshal rejects it: %v", body, specErr)
			}
			if !reflect.DeepEqual(fast, spec) {
				t.Fatalf("%q: direct parser %+v, json.Unmarshal %+v", body, fast, spec)
			}
		}
		got, err := decodeWriteRequest(body)
		if (err == nil) != (specErr == nil) || (err == nil && !reflect.DeepEqual(got, spec)) {
			t.Fatalf("%q: decodeWriteRequest %+v, %v; json.Unmarshal %+v, %v", body, got, err, spec, specErr)
		}

		// Reuse the fuzz bytes as a client request to encode: a count or
		// an address batch, as Client.Write and Client.WriteAddrs send.
		var req writeRequest
		if len(body) >= 9 && body[0]&1 == 1 {
			req.Count = max(1, binary.LittleEndian.Uint64(body[1:]))
		} else {
			for b := body; len(b) >= 8; b = b[8:] {
				req.Addrs = append(req.Addrs, binary.LittleEndian.Uint64(b))
			}
		}
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		enc := appendWriteRequest(nil, req)
		if !bytes.Equal(enc, want) {
			t.Fatalf("client encoding %s, json.Marshal %s", enc, want)
		}
		if req.Count != 0 || len(req.Addrs) > 0 {
			if back, ok := parseWriteBody(enc); !ok || !reflect.DeepEqual(back, req) {
				t.Fatalf("direct parser read %s back as %+v, %v", enc, back, ok)
			}
		}
	})
}

// fleetAddrBody is a 4096-address write body like a fleet client's.
func fleetAddrBody() []byte {
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(i*2654435761) % 4096
	}
	return appendWriteRequest(nil, writeRequest{Addrs: addrs})
}

// BenchmarkWriteBodyDecode measures the server's decode of one
// 4096-address write body.
func BenchmarkWriteBodyDecode(b *testing.B) {
	body := fleetAddrBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if req, err := decodeWriteRequest(body); err != nil || len(req.Addrs) != 4096 {
			b.Fatalf("decoded %d addrs, %v", len(req.Addrs), err)
		}
	}
}
