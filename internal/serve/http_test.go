package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wlreviver/internal/sim"
	"wlreviver/internal/trace"
)

// TestStatusTableRoundTrip pins the one-table contract: every sentinel
// maps to its HTTP code, and the client's kind→sentinel reverse map
// reconstructs exactly the sentinel the server classified.
func TestStatusTableRoundTrip(t *testing.T) {
	for _, row := range statusTable {
		kind, code := classify(row.err)
		if kind != row.kind || code != row.code {
			t.Errorf("classify(%v) = %q/%d, want %q/%d", row.err, kind, code, row.kind, row.code)
		}
		back := sentinelFor(kind)
		if !errors.Is(back, row.err) {
			t.Errorf("sentinelFor(%q) = %v, does not match %v", kind, back, row.err)
		}
	}
	// Unclassified errors fall through to a plain 500.
	if kind, code := classify(errors.New("surprise")); kind != "internal" || code != http.StatusInternalServerError {
		t.Errorf("unclassified error mapped to %q/%d", kind, code)
	}
	if err := sentinelFor("no-such-kind"); err != nil {
		t.Errorf("unknown kind should yield no sentinel, got %v", err)
	}
}

// TestHTTPEndToEnd drives the full API through the HTTP client against
// a handler-hosted fleet: create, list, write, metrics, checkpoint,
// delete — and checks the checkpoint bytes match the in-process view.
func TestHTTPEndToEnd(t *testing.T) {
	f, err := Open(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewHandler(f))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	if h, err := c.Health(ctx); err != nil || h.Devices != 0 {
		t.Fatalf("empty health: %+v, %v", h, err)
	}
	stacks, err := c.Stacks(ctx)
	if err != nil || len(stacks) == 0 {
		t.Fatalf("stacks: %v, %v", stacks, err)
	}

	spec := testSpec(7)
	if err := c.Create(ctx, "dev", spec); err != nil {
		t.Fatal(err)
	}
	ids, err := c.List(ctx)
	if err != nil || len(ids) != 1 || ids[0] != "dev" {
		t.Fatalf("list: %v, %v", ids, err)
	}
	wr, err := c.Write(ctx, "dev", 10_000)
	if err != nil || wr.Done != 10_000 {
		t.Fatalf("write: %+v, %v", wr, err)
	}
	addrs := []uint64{0, 3, 5, 7}
	wr, err = c.WriteAddrs(ctx, "dev", addrs)
	if err != nil || wr.Done != uint64(len(addrs)) {
		t.Fatalf("write addrs: %+v, %v", wr, err)
	}
	st, err := c.Status(ctx, "dev")
	if err != nil || st.Writes != 10_004 {
		t.Fatalf("status: %+v, %v", st, err)
	}
	raw, err := c.Metrics(ctx, "dev")
	if err != nil || !bytes.Contains(raw, []byte("counters")) {
		t.Fatalf("metrics: %v, %v", err, string(raw))
	}
	img, err := c.Checkpoint(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := f.Checkpoint(ctx, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, direct) {
		t.Error("checkpoint over HTTP differs from in-process checkpoint")
	}
	if err := c.Delete(ctx, "dev"); err != nil {
		t.Fatal(err)
	}
	if h, err := c.Health(ctx); err != nil || h.Devices != 0 {
		t.Fatalf("health after delete: %+v, %v", h, err)
	}
}

// TestHTTPErrorTaxonomy checks errors.Is works across the wire: the
// client rehydrates the same sentinels the server-side fleet returned.
func TestHTTPErrorTaxonomy(t *testing.T) {
	f, err := Open(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewHandler(f))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	if _, err := c.Status(ctx, "ghost"); !errors.Is(err, ErrUnknownDevice) {
		t.Errorf("missing device over HTTP: got %v, want ErrUnknownDevice", err)
	}
	spec := testSpec(1)
	if err := c.Create(ctx, "dev", spec); err != nil {
		t.Fatal(err)
	}
	if err := c.Create(ctx, "dev", spec); !errors.Is(err, ErrDeviceExists) {
		t.Errorf("duplicate create over HTTP: got %v, want ErrDeviceExists", err)
	}
	bad := testSpec(1)
	bad.Workload.Kind = "nosuch"
	if err := c.Create(ctx, "dev2", bad); !errors.Is(err, trace.ErrUnknownWorkload) {
		t.Errorf("bad workload over HTTP: got %v, want ErrUnknownWorkload", err)
	}
	bad = testSpec(1)
	bad.Blocks = 3 // not a power of two
	if err := c.Create(ctx, "dev2", bad); !errors.Is(err, sim.ErrBadConfig) {
		t.Errorf("bad geometry over HTTP: got %v, want ErrBadConfig", err)
	}
	if _, err := c.WriteAddrs(ctx, "dev", []uint64{1 << 40}); !errors.Is(err, sim.ErrBadConfig) {
		t.Errorf("out-of-range address over HTTP: got %v, want ErrBadConfig", err)
	}
}

// TestHTTPRequestValidation exercises the handler's own rejects, which
// no Client call can produce.
func TestHTTPRequestValidation(t *testing.T) {
	f, err := Open(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewHandler(f))
	defer srv.Close()
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("/v1/devices", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/devices", `{"spec":{}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing id: %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/devices", `{"id":"odd","spec":{"blocks":384,"blocks_per_page":24}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("page size not a power of two: %d, want 400", resp.StatusCode)
	}
	if err := NewClient(srv.URL, srv.Client()).Create(context.Background(), "dev", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	// A write must carry exactly one of count / addrs.
	if resp := post("/v1/devices/dev/writes", `{}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty write: %d, want 400", resp.StatusCode)
	}
	if resp := post("/v1/devices/dev/writes", `{"count":1,"addrs":[2]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ambiguous write: %d, want 400", resp.StatusCode)
	}
	// Non-canonical JSON still decodes, through encoding/json.
	if resp := post("/v1/devices/dev/writes", `{"Count": 5, "ignored": null}`); resp.StatusCode != http.StatusOK {
		t.Errorf("non-canonical write: %d, want 200", resp.StatusCode)
	}
	if resp := post("/v1/devices/dev/writes", `{"count":-1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative count: %d, want 400", resp.StatusCode)
	}
	// A body over the cap is reported as too long, not as malformed
	// JSON. The handler is called directly: a client streaming the rest
	// of the body races the server's early close.
	big := make([]byte, 0, maxBodyBytes+2<<20)
	big = append(big, `{"addrs":[1`...)
	for len(big) < maxBodyBytes+1<<20 {
		big = append(big, ",1"...)
	}
	big = append(big, "]}"...)
	rec := httptest.NewRecorder()
	NewHandler(f).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/devices/dev/writes", bytes.NewReader(big)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "exceeds 16 MiB") ||
		!strings.Contains(rec.Body.String(), `"kind":"bad_config"`) {
		t.Errorf("over-limit body: %d %s, want 400 naming the 16 MiB cap", rec.Code, rec.Body)
	}
}

// TestHTTPMetricsAfterReload checks GET /v1/devices/{id}/metrics
// against a standalone engine fed the same writes, with metrics reads
// between writes and the device evicted and reloaded between requests.
func TestHTTPMetricsAfterReload(t *testing.T) {
	spec := testSpec(7)
	addrs := []uint64{1, 2, 3, 500, 7, 7, 9}
	cfg := testConfig(t)
	cfg.MaxResident = 1
	f, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewHandler(f))
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	for _, id := range []string{"dev", "other"} {
		if err := c.Create(ctx, id, spec); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	for round := 0; round < 4; round++ {
		if _, err := c.Write(ctx, "dev", 5_000); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WriteAddrs(ctx, "dev", addrs); err != nil {
			t.Fatal(err)
		}
		if got, err = c.Metrics(ctx, "dev"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(ctx, "other", 100); err != nil { // evicts dev
			t.Fatal(err)
		}
	}

	eng, _, err := buildEngine(spec)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		eng.RunN(5_000)
		for _, a := range addrs {
			eng.WriteTagged(a, eng.Writes())
		}
	}
	m, _ := eng.Metrics()
	want, err := json.Marshal(m.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("metrics after reload differ from a standalone engine:\nfleet: %s\nsolo:  %s", got, want)
	}
}
