package serve

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"wlreviver/internal/trace"
)

// FuzzDeviceSpec decodes arbitrary spec.json payloads and resolves them
// the way Create and recovery do, short of building the engine (whose
// geometry comes from the tenant unbounded). Resolution must never
// panic, and an accepted spec must survive the round trip materialize
// makes through spec.json: re-marshalled and decoded again, it resolves
// to the identical sim.Config and trace.Spec.
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
	})
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
