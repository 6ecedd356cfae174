package sim

import (
	"errors"
	"strings"
	"testing"

	"wlreviver/internal/freep"
	"wlreviver/internal/lls"
	"wlreviver/internal/mc"
	"wlreviver/internal/reviver"
	"wlreviver/internal/trace"
)

func tinyEngine(t *testing.T, mutate func(*Config)) *Engine {
	t.Helper()
	s := TinyScale()
	cfg := s.config()
	if mutate != nil {
		mutate(&cfg)
	}
	gen, err := trace.NewUniform(cfg.Blocks, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	gen, _ := trace.NewUniform(64, 1)
	if _, err := NewEngine(Config{}, gen); err == nil {
		t.Error("zero config accepted")
	}
	cfg := DefaultConfig()
	cfg.Blocks = 128 // mismatch with generator
	if _, err := NewEngine(cfg, gen); err == nil {
		t.Error("workload/system size mismatch accepted")
	}
}

func TestEngineVariantsConstruct(t *testing.T) {
	for _, lv := range []LevelerKind{LevelerNone, LevelerStartGap, LevelerSecurityRefresh, LevelerRegionedStartGap} {
		for _, prot := range []ProtectorKind{ProtectorNone, ProtectorWLReviver, ProtectorFREEp, ProtectorLLS} {
			for _, e := range []ECCKind{ECCECP6, ECCECP1, ECCPAYG} {
				lv, prot, e := lv, prot, e
				eng := tinyEngine(t, func(c *Config) {
					c.Leveler = lv
					c.Protector = prot
					c.ECC = e
					c.FreepReserveFraction = 0.05
					c.CacheKB = 4
				})
				if eng.RunN(500) != 500 {
					t.Errorf("leveler=%v prot=%v ecc=%v: fresh system could not run 500 writes", lv, prot, e)
				}
				for v := uint64(0); v < 3; v++ {
					eng.Read(v)
				}
				checkRequestCounts(t, eng)
			}
		}
	}
}

// checkRequestCounts requires the engine's request counts to be its
// protector's own Stats (writes plus reads, request accesses) and the
// access ratio to be their quotient.
func checkRequestCounts(t *testing.T, e *Engine) {
	t.Helper()
	var wantReq, wantAcc uint64
	switch p := e.Protector().(type) {
	case *reviver.Reviver:
		st := p.Stats()
		wantReq, wantAcc = st.SoftwareWrites+st.SoftwareReads, st.RequestAccesses
	case *freep.FREEp:
		st := p.Stats()
		wantReq, wantAcc = st.SoftwareWrites+st.SoftwareReads, st.RequestAccesses
	case *lls.LLS:
		st := p.Stats()
		wantReq, wantAcc = st.SoftwareWrites+st.SoftwareReads, st.RequestAccesses
	case *mc.Passthrough:
		// No Stats struct: every request is one raw access until a
		// failure, which none of these 500 writes reaches.
		wantReq, wantAcc = 503, 503
	default:
		t.Fatalf("unexpected protector %T", p)
	}
	name := e.Protector().Name()
	req, acc := e.RequestCounts()
	if req != wantReq || acc != wantAcc {
		t.Errorf("%s: RequestCounts = (%d,%d), want (%d,%d)", name, req, acc, wantReq, wantAcc)
	}
	if req < 503 {
		t.Errorf("%s: %d requests counted, want at least 503", name, req)
	}
	if got, want := e.AccessRatio(), float64(wantAcc)/float64(wantReq); got != want {
		t.Errorf("%s: AccessRatio = %v, want %v", name, got, want)
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[string]string{
		LevelerStartGap.String():         "SG",
		LevelerSecurityRefresh.String():  "SR",
		LevelerRegionedStartGap.String(): "SG-R",
		LevelerNone.String():             "none",
		ProtectorWLReviver.String():      "WLR",
		ProtectorFREEp.String():          "FREE-p",
		ProtectorLLS.String():            "LLS",
		LevelerWoLFRaM.String():          "WFR",
		LevelerSoftWear.String():         "SW",
		ProtectorNone.String():           "none",
		ECCECP6.String():                 "ECP6",
		ECCECP1.String():                 "ECP1",
		ECCPAYG.String():                 "PAYG",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// TestParseKinds round-trips every kind through its display name and
// pins the unknown-name error text, which lists the known names.
func TestParseKinds(t *testing.T) {
	for k := LevelerNone; k <= LevelerSoftWear; k++ {
		if got, err := ParseLevelerKind(k.String()); got != k || err != nil {
			t.Errorf("ParseLevelerKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for k := ProtectorNone; k <= ProtectorLLS; k++ {
		if got, err := ParseProtectorKind(k.String()); got != k || err != nil {
			t.Errorf("ParseProtectorKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for k := ECCECP6; k <= ECCPAYG; k++ {
		if got, err := ParseECCKind(k.String()); got != k || err != nil {
			t.Errorf("ParseECCKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	_, lvErr := ParseLevelerKind("x")
	_, pErr := ParseProtectorKind("DRM")
	_, eErr := ParseECCKind("ecp6")
	for _, c := range []struct {
		err  error
		want string
	}{
		{lvErr, `sim: unknown leveler "x" (known: none, SG, SR, SG-R, WFR, SW): ` + ErrBadConfig.Error()},
		{pErr, `sim: unknown protector "DRM" (known: none, WLR, FREE-p, LLS): ` + ErrBadConfig.Error()},
		{eErr, `sim: unknown ECC "ecp6" (known: ECP6, ECP1, PAYG): ` + ErrBadConfig.Error()},
	} {
		if c.err == nil || c.err.Error() != c.want || !errors.Is(c.err, ErrBadConfig) {
			t.Errorf("error = %v, want %s", c.err, c.want)
		}
	}
}

func TestEngineAccessors(t *testing.T) {
	e := tinyEngine(t, nil)
	e.RunN(1000)
	if e.Writes() != 1000 {
		t.Errorf("writes = %d", e.Writes())
	}
	if wpb := e.WritesPerBlock(); wpb <= 0 || wpb > 1 {
		t.Errorf("writes/block = %v", wpb)
	}
	if e.SurvivalRate() != 1 {
		t.Error("no failures expected yet")
	}
	if e.UsableFraction() != 1 {
		t.Error("usable should be 1")
	}
	if e.Crippled() || e.Stopped() {
		t.Error("fresh system neither crippled nor stopped")
	}
	if _, ok := e.Reviver(); !ok {
		t.Error("default protector is the reviver")
	}
	if e.Device() == nil || e.OS() == nil || e.Protector() == nil || e.Leveler() == nil {
		t.Error("accessors returned nil")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		e := tinyEngine(t, nil)
		e.RunN(400_000)
		return e.Device().DeadBlocks(), e.UsableFraction()
	}
	d1, u1 := run()
	d2, u2 := run()
	if d1 != d2 || u1 != u2 {
		t.Errorf("same seed diverged: (%d,%v) vs (%d,%v)", d1, u1, d2, u2)
	}
	if d1 == 0 {
		t.Error("expected failures at tiny endurance")
	}
}

// TestRunNMatchesStepAtTerminalStop guards the LLS terminal path:
// writeTagged sets stopped while reporting the crippling write as
// serviced, and RunN must halt its batch right there, exactly as a
// Step-driven loop does (regression: RunN once checked stopped only at
// entry and ran up to checkEvery-1 writes past the terminal stop).
func TestRunNMatchesStepAtTerminalStop(t *testing.T) {
	build := func() *Engine {
		return tinyEngine(t, func(c *Config) { c.Protector = ProtectorLLS })
	}
	const budget uint64 = 2_000_000

	step := build()
	var stepWrites uint64
	for stepWrites < budget && step.Step() {
		stepWrites++
	}
	if !step.Stopped() {
		t.Fatalf("LLS engine still running after %d writes; terminal path not exercised", budget)
	}

	batched := build()
	var batchWrites uint64
	for batchWrites < budget {
		n := budget - batchWrites
		if n > checkEvery {
			n = checkEvery
		}
		done := batched.RunN(n)
		batchWrites += done
		if done < n {
			break
		}
	}

	if stepWrites != batchWrites || step.Writes() != batched.Writes() {
		t.Errorf("Step loop serviced %d (engine count %d); RunN batches serviced %d (engine count %d)",
			stepWrites, step.Writes(), batchWrites, batched.Writes())
	}
	if !batched.Stopped() {
		t.Error("RunN-driven engine not stopped")
	}
	if d1, d2 := step.Device().DeadBlocks(), batched.Device().DeadBlocks(); d1 != d2 {
		t.Errorf("device wear diverged: %d vs %d dead blocks", d1, d2)
	}
}

func TestAccessRatioTracked(t *testing.T) {
	e := tinyEngine(t, func(c *Config) { c.CacheKB = 4 })
	e.RunN(300_000)
	r := e.AccessRatio()
	if r < 1 || r > 2 {
		t.Errorf("access ratio %v outside [1,2]", r)
	}
}

func TestTable1Shapes(t *testing.T) {
	res, err := Table1(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
		if r.MeasuredCoV <= 0 {
			t.Errorf("%s: measured CoV %v", r.Name, r.MeasuredCoV)
		}
	}
	// Low-CoV benchmarks must calibrate tightly; mg saturates at tiny
	// scale (the sample CoV ceiling is sqrt(n-1)) but must stay extreme.
	ocean := byName["ocean"]
	if ocean.MeasuredCoV < 3 || ocean.MeasuredCoV > 5.5 {
		t.Errorf("ocean CoV %v, want ~4.15", ocean.MeasuredCoV)
	}
	if mg := byName["mg"]; mg.MeasuredCoV < 4*ocean.MeasuredCoV {
		t.Errorf("mg CoV %v should dwarf ocean's %v", mg.MeasuredCoV, ocean.MeasuredCoV)
	}
	if !strings.Contains(res.String(), "mg") {
		t.Error("formatting lost rows")
	}
}

func TestFig5Shapes(t *testing.T) {
	res, err := Fig5(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var minGain, maxNo, minNo = 1e18, 0.0, 1e18
	var maxWLR, minWLR = 0.0, 1e18
	for _, r := range res.Rows {
		if r.LifetimeWLR <= r.LifetimeNoWLR {
			t.Errorf("%s: WLR lifetime %v <= baseline %v", r.Benchmark, r.LifetimeWLR, r.LifetimeNoWLR)
		}
		if r.ImprovementPct < minGain {
			minGain = r.ImprovementPct
		}
		if r.LifetimeNoWLR > maxNo {
			maxNo = r.LifetimeNoWLR
		}
		if r.LifetimeNoWLR < minNo {
			minNo = r.LifetimeNoWLR
		}
		if r.LifetimeWLR > maxWLR {
			maxWLR = r.LifetimeWLR
		}
		if r.LifetimeWLR < minWLR {
			minWLR = r.LifetimeWLR
		}
	}
	if minGain < 20 {
		t.Errorf("smallest WLR gain %v%%; paper reports 36%%-325%%", minGain)
	}
	// WLR flattens CoV sensitivity: lifetime spread shrinks.
	if maxWLR/minWLR >= maxNo/minNo {
		t.Errorf("WLR spread %v should be below baseline spread %v",
			maxWLR/minWLR, maxNo/minNo)
	}
}

func TestFig6Shapes(t *testing.T) {
	for _, w := range []string{"ocean", "mg"} {
		res, err := CurveFigure(TinyScale(), "fig6", w)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Curves) != 6 {
			t.Fatalf("curves = %d", len(res.Curves))
		}
		life := map[string]float64{}
		for _, c := range res.Curves {
			life[c.Name] = c.Points[len(c.Points)-1].X
		}
		if life["ECP6-SG-WLR"] <= life["ECP6-SG"] {
			t.Errorf("%s: ECP6-SG-WLR lifetime %v <= ECP6-SG %v", w, life["ECP6-SG-WLR"], life["ECP6-SG"])
		}
		if life["PAYG-SG-WLR"] <= life["PAYG"] {
			t.Errorf("%s: PAYG-SG-WLR lifetime %v <= PAYG %v", w, life["PAYG-SG-WLR"], life["PAYG"])
		}
		if !strings.Contains(res.String(), "ECP6-SG-WLR") {
			t.Error("formatting lost curves")
		}
	}
}

func TestFig7Shapes(t *testing.T) {
	res, err := CurveFigure(TinyScale(), "fig7", "mg")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 5 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	byName := map[string]int{}
	for i, c := range res.Curves {
		byName[c.Name] = i
	}
	// FREE-p starts below 1 by its reservation.
	f15 := res.Curves[byName["FREE-p(15%)"]]
	if f15.Points[0].Y > 0.87 || f15.Points[0].Y < 0.83 {
		t.Errorf("FREE-p(15%%) starts at %v, want ~0.85", f15.Points[0].Y)
	}
	// WLR keeps 100% before the first failure and outlasts every FREE-p.
	wlr := res.Curves[byName["WL-Reviver"]]
	if wlr.Points[0].Y != 1 {
		t.Error("WLR must start fully usable")
	}
	wlrLife := wlr.Points[len(wlr.Points)-1].X
	for name, i := range byName {
		if name == "WL-Reviver" {
			continue
		}
		c := res.Curves[i]
		if end := c.Points[len(c.Points)-1].X; end >= wlrLife {
			t.Errorf("%s outlived WL-Reviver: %v >= %v", name, end, wlrLife)
		}
	}
	// Under skewed mg, larger reservations survive longer (paper §IV-C).
	ends := func(name string) float64 {
		c := res.Curves[byName[name]]
		return c.Points[len(c.Points)-1].X
	}
	if ends("FREE-p(15%)") <= ends("FREE-p(0%)") {
		t.Errorf("15%% reserve (%v) should outlast 0%% (%v) under mg",
			ends("FREE-p(15%)"), ends("FREE-p(0%)"))
	}
}

func TestFig8Shapes(t *testing.T) {
	res, err := CurveFigure(TinyScale(), "fig8", "mg")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	wlr, llsCurve := res.Curves[0], res.Curves[1]
	if wlr.Name != "WL-Reviver" || llsCurve.Name != "LLS" {
		t.Fatalf("unexpected curve names %q %q", wlr.Name, llsCurve.Name)
	}
	wlrEnd := wlr.Points[len(wlr.Points)-1].X
	llsEnd := llsCurve.Points[len(llsCurve.Points)-1].X
	if llsEnd >= wlrEnd {
		t.Errorf("LLS sustained %v writes/block, WLR %v; WLR should win", llsEnd, wlrEnd)
	}
	// At LLS's half-life point, WLR must retain more usable space.
	x := llsEnd / 2
	if wlr.YAt(x) <= llsCurve.YAt(x) {
		t.Errorf("at %v writes/block WLR usable %v <= LLS %v", x, wlr.YAt(x), llsCurve.YAt(x))
	}
}

func TestTable2Shapes(t *testing.T) {
	res, err := Table2(TinyScale(), []string{"ocean"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) == 0 {
		t.Fatal("no cells")
	}
	space := map[string]map[float64]float64{"LLS": {}, "WL-Reviver": {}}
	for _, c := range res.Cells {
		if c.AccessTime < 0.99 || c.AccessTime > 2 {
			t.Errorf("%s@%v%%: access time %v implausible", c.Scheme, c.FailureRatio*100, c.AccessTime)
		}
		if c.Reached {
			space[c.Scheme][c.FailureRatio] = c.UsableSpacePct
		}
	}
	for ratio, wlrSpace := range space["WL-Reviver"] {
		if llsSpace, ok := space["LLS"][ratio]; ok && wlrSpace <= llsSpace {
			t.Errorf("at %v%% failures WLR space %v%% <= LLS %v%%", ratio*100, wlrSpace, llsSpace)
		}
	}
	if !strings.Contains(res.String(), "WL-Reviver") {
		t.Error("formatting lost cells")
	}
}

func TestAttacksShapes(t *testing.T) {
	res, err := Attacks(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	cost := map[string]map[string]float64{}
	for _, r := range res.Rows {
		if cost[r.Attack] == nil {
			cost[r.Attack] = map[string]float64{}
		}
		cost[r.Attack][r.Scheme] = r.LifetimeWPB
	}
	for attack, byScheme := range cost {
		if byScheme["ECP6-SG-WLR"] <= byScheme["ECP6-SG"] {
			t.Errorf("%s: WLR cost %v should exceed baseline %v",
				attack, byScheme["ECP6-SG-WLR"], byScheme["ECP6-SG"])
		}
	}
	if !strings.Contains(res.String(), "hammer-1") {
		t.Error("formatting lost rows")
	}
}

// End-to-end data integrity through the engine: every virtual block
// reads back the last tag written to it, across failures, retirements
// and migrations. (The reviver package proves this at the PA level; this
// covers the OS translation layer on top.)
func TestEngineContentIntegrity(t *testing.T) {
	s := TinyScale()
	cfg := s.config()
	cfg.Blocks = 512
	cfg.BlocksPerPage = 16
	cfg.MeanEndurance = 400
	cfg.TrackContent = true
	gen, err := trace.NewUniform(cfg.Blocks, 9)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	// Expectations are keyed by physical address: after the OS folds a
	// retired page's virtual page onto a donor, two virtual blocks can
	// legitimately share one PA (last write wins), and a retirement also
	// relocates data between PAs — so expectations reset whenever a page
	// retires and rebuild from subsequent writes. PA-level integrity
	// through relocation itself is proven in the reviver's harness.
	expected := make(map[uint64]uint64) // pa -> tag
	vblocks := make(map[uint64]uint64)  // pa -> a vblock currently translating to it
	src, _ := trace.NewUniform(cfg.Blocks, 10)
	var tag uint64
	for i := 0; i < 300_000; i++ {
		v := src.Next()
		tag++
		before := e.OS().RetiredPages()
		if !e.WriteTagged(v, tag) {
			break
		}
		if e.OS().RetiredPages() != before {
			expected = make(map[uint64]uint64)
			vblocks = make(map[uint64]uint64)
		}
		if pa, ok := e.OS().Translate(v); ok {
			expected[pa] = tag
			vblocks[pa] = v
		}
		if i%10_000 == 0 {
			if rv, ok := e.Reviver(); ok && rv.HasPending() {
				continue
			}
			for pa, want := range expected {
				vb := vblocks[pa]
				cur, ok := e.OS().Translate(vb)
				if !ok {
					t.Fatal("translate failed on live memory")
				}
				if cur != pa {
					continue // translation moved; expectation stale
				}
				got, ok := e.Read(vb)
				if !ok {
					t.Fatal("read failed on live memory")
				}
				if got != want {
					t.Fatalf("PA %d (vblock %d) reads %d, want %d (iteration %d)", pa, vb, got, want, i)
				}
			}
		}
	}
	if e.Device().DeadBlocks() == 0 {
		t.Error("test never exercised failures")
	}
}
