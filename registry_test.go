package wlreviver

import (
	"reflect"
	"strings"
	"testing"
)

func TestExperimentRegistry(t *testing.T) {
	wantOrder := []string{"table1", "fig5", "fig6", "fig7", "fig8", "table2", "wolfram", "softwear", "attacks"}
	if got := ExperimentNames(); !reflect.DeepEqual(got, wantOrder) {
		t.Fatalf("ExperimentNames() = %v, want %v", got, wantOrder)
	}
	for _, e := range Experiments() {
		if e.Name == "" || e.Doc == "" || e.Run == nil {
			t.Errorf("incomplete registry entry %+v", e)
		}
	}
	if _, err := LookupExperiment("table1"); err != nil {
		t.Error(err)
	}
	_, err := LookupExperiment("fig9")
	if err == nil || !strings.Contains(err.Error(), "fig9") || !strings.Contains(err.Error(), "table2") {
		t.Errorf("unknown-experiment error should name the request and the known set: %v", err)
	}
}

// TestRegistryDrivesFacade pins that the preset functions dispatch
// through the registry and keep their concrete result types.
func TestRegistryDrivesFacade(t *testing.T) {
	s := TinyScale()
	direct, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := LookupExperiment("table1")
	if err != nil {
		t.Fatal(err)
	}
	viaRegistry, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if viaRegistry.String() != direct.String() {
		t.Error("registry and facade runs disagree")
	}
	if _, ok := viaRegistry.(*Table1Result); !ok {
		t.Errorf("registry returned %T, want *Table1Result", viaRegistry)
	}
}

// TestUnknownWorkloadRejectedUpfront pins the bugfix: per-workload
// experiments reject a bad workload name before running any engine, with
// an error listing the known benchmarks.
func TestUnknownWorkloadRejectedUpfront(t *testing.T) {
	s := TinyScale()
	for name, run := range map[string]func() error{
		"fig6":   func() error { _, err := CurveFigure(s, "fig6", "nosuch"); return err },
		"fig7":   func() error { _, err := CurveFigure(s, "fig7", "nosuch"); return err },
		"fig8":   func() error { _, err := CurveFigure(s, "fig8", "nosuch"); return err },
		"table2": func() error { _, err := Table2(s, []string{"mg", "nosuch"}); return err },
	} {
		err := run()
		if err == nil {
			t.Errorf("%s accepted unknown workload", name)
			continue
		}
		if !strings.Contains(err.Error(), "nosuch") || !strings.Contains(err.Error(), "mg") {
			t.Errorf("%s error should name the bad workload and the known set: %v", name, err)
		}
	}
}

// TestDeviceStackNames pins the registered stack names and their order:
// wlserved persists them in each device's spec and serves them at
// GET /v1/stacks, and the perfbench set-up looks them up by name.
func TestDeviceStackNames(t *testing.T) {
	want := []string{
		"fig6/ECP6", "fig6/PAYG", "fig6/ECP6-SG", "fig6/PAYG-SG", "fig6/ECP6-SG-WLR", "fig6/PAYG-SG-WLR",
		"fig7/WL-Reviver", "fig7/FREE-p(0%)", "fig7/FREE-p(5%)", "fig7/FREE-p(10%)", "fig7/FREE-p(15%)",
		"fig8/WL-Reviver", "fig8/LLS",
		"wolfram/WFR", "wolfram/WFR-FREE-p(10%)", "wolfram/WFR-LLS", "wolfram/WFR-WLR",
		"softwear/SW", "softwear/SW-FREE-p(10%)", "softwear/SW-LLS", "softwear/SW-WLR",
	}
	if got := DeviceStackNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DeviceStackNames() =\n%q\nwant\n%q", got, want)
	}
}
