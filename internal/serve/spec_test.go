package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"slices"
	"testing"

	"wlreviver/internal/sim"
	"wlreviver/internal/trace"
)

// FuzzDeviceSpec decodes arbitrary spec.json payloads and resolves them
// the way Create and recovery do. Resolution must never panic, an
// accepted spec must survive the round trip materialize makes through
// spec.json (re-marshalled and decoded again, it resolves to the
// identical sim.Config and trace.Spec), and building its engine must
// either succeed or fail as a client error (HTTP 400). Admission bounds
// every allocation the build makes by the tenant's chip, which is what
// makes building each accepted spec safe.
func FuzzDeviceSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec DeviceSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		cfg, err := spec.config()
		if err != nil {
			return
		}
		w := spec.workload(cfg)

		out, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", spec, err)
		}
		var again DeviceSpec
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("re-marshalled spec %s does not decode: %v", out, err)
		}
		cfg2, err := again.config()
		if err != nil {
			t.Fatalf("re-marshalled spec %s rejected: %v", out, err)
		}
		if !reflect.DeepEqual(cfg, cfg2) {
			t.Fatalf("%s: config %+v, after round trip %+v", data, cfg, cfg2)
		}
		if w2 := again.workload(cfg2); !sameWorkload(w, w2) {
			t.Fatalf("%s: workload %+v, after round trip %+v", data, w, w2)
		}

		if _, err := buildEngine(spec); err != nil {
			if _, code := classify(err); code != http.StatusBadRequest {
				t.Fatalf("%s: accepted spec fails to build with HTTP %d: %v", data, code, err)
			}
		}
	})
}

// TestDeviceSpecBounds pins admission at each bound: a spec at the bound
// resolves, one just past it is a bad config (HTTP 400) before anything
// is sized from it.
func TestDeviceSpecBounds(t *testing.T) {
	lls := func(s DeviceSpec) DeviceSpec {
		s.Blocks, s.BlocksPerPage, s.Protector = 1024, 8, "LLS"
		return s
	}
	for _, c := range []struct {
		name      string
		at, past  DeviceSpec
		buildAtOK bool // the at-bound engine is small enough to build here
	}{
		{"blocks", DeviceSpec{Blocks: 1 << 24}, DeviceSpec{Blocks: 1<<24 + 1}, false},
		{"cache_kb", DeviceSpec{CacheKB: maxCacheKB}, DeviceSpec{CacheKB: maxCacheKB + 1}, false},
		{"sr_inner_regions",
			DeviceSpec{Blocks: 1024, Leveler: "SR", SRInnerRegions: 1024},
			DeviceSpec{Blocks: 1024, Leveler: "SR", SRInnerRegions: 1025}, true},
		{"sg_regions",
			DeviceSpec{Blocks: 1024, Leveler: "SG-R", SGRegions: 1024},
			DeviceSpec{Blocks: 1024, Leveler: "SG-R", SGRegions: 1025}, true},
		{"workload_blocks",
			DeviceSpec{Blocks: 1024, Workload: trace.Spec{Kind: "mg", Blocks: 1024}},
			DeviceSpec{Blocks: 1024, Workload: trace.Spec{Kind: "mg", Blocks: 2048}}, true},
		{"lls_chunk_pages", lls(DeviceSpec{LLSChunkPages: 128}), lls(DeviceSpec{LLSChunkPages: 129}), true},
		{"lls_salvage_groups", lls(DeviceSpec{LLSSalvageGroups: 1024}), lls(DeviceSpec{LLSSalvageGroups: 1025}), true},
		{"lls_backup_fraction", lls(DeviceSpec{LLSBackupFraction: 1}), lls(DeviceSpec{LLSBackupFraction: 1.01}), true},
		{"freep_reserve_fraction",
			DeviceSpec{Blocks: 1024, Protector: "FREE-p", FreepReserveFraction: 0.5},
			DeviceSpec{Blocks: 1024, Protector: "FREE-p", FreepReserveFraction: 0.51}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.at.config(); err != nil {
				t.Errorf("spec at the bound rejected: %v", err)
			}
			if c.buildAtOK {
				if _, err := buildEngine(c.at); err != nil {
					t.Errorf("spec at the bound does not build: %v", err)
				}
			}
			_, err := c.past.config()
			if _, code := classify(err); !errors.Is(err, sim.ErrBadConfig) || code != http.StatusBadRequest {
				t.Errorf("spec past the bound: config() = %v (HTTP %d), want a bad config", err, code)
			}
		})
	}
}

// sameWorkload compares two workload specs, treating a nil and an empty
// target list as equal (omitempty drops both).
func sameWorkload(a, b trace.Spec) bool {
	if !slices.Equal(a.Targets, b.Targets) {
		return false
	}
	a.Targets, b.Targets = nil, nil
	return reflect.DeepEqual(a, b)
}
