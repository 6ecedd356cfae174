package sim

import (
	"fmt"
	"sort"

	"wlreviver/internal/stats"
)

// ReferenceWorkloads are the two Table I benchmarks the paper's
// per-workload figures (6–8) and Table II are evaluated on.
var ReferenceWorkloads = []string{"ocean", "mg"}

// Experiment is one registered evaluation preset: a stable name, a
// one-line description, and a runner producing the printable result.
// Every result also implements TotalWrites() uint64 (write-volume
// accounting) and, for the curve figures, CurveData() (CSV export).
type Experiment struct {
	Name string
	Doc  string
	Run  func(Scale) (fmt.Stringer, error)
}

// Experiments returns the ordered experiment registry — the single place
// evaluation presets are declared. The CLI's -exp dispatch and the public
// wlreviver re-exports are both built over it, so adding an experiment
// here surfaces it everywhere.
func Experiments() []Experiment {
	return []Experiment{
		{
			Name: "table1",
			Doc:  "benchmark write CoVs, paper vs synthetic stand-ins",
			Run:  func(s Scale) (fmt.Stringer, error) { return Table1(s) },
		},
		{
			Name: "fig5",
			Doc:  "lifetime to 30% capacity loss per benchmark, ±WL-Reviver",
			Run:  func(s Scale) (fmt.Stringer, error) { return Fig5(s) },
		},
		{
			Name: "fig6",
			Doc:  "capacity-survival curves under six ECC/leveler stacks",
			Run:  func(s Scale) (fmt.Stringer, error) { return bothWorkloads(s, fig6) },
		},
		{
			Name: "fig7",
			Doc:  "user-usable space, WL-Reviver vs FREE-p reservations",
			Run:  func(s Scale) (fmt.Stringer, error) { return bothWorkloads(s, fig7) },
		},
		{
			Name: "fig8",
			Doc:  "software-usable space, WL-Reviver vs LLS",
			Run:  func(s Scale) (fmt.Stringer, error) { return bothWorkloads(s, fig8) },
		},
		{
			Name: "table2",
			Doc:  "access time and usable space at 10/20/30% failed blocks",
			Run: func(s Scale) (fmt.Stringer, error) {
				return Table2(s, []string{"mg", "ocean"})
			},
		},
		{
			Name: "wolfram",
			Doc:  "WoLFRaM decoder remapping: bare vs FREE-p vs LLS vs WL-Reviver",
			Run: func(s Scale) (fmt.Stringer, error) {
				return bothWorkloads(s, figLeveler(LevelerWoLFRaM, "wolfram"))
			},
		},
		{
			Name: "softwear",
			Doc:  "SoftWear OS-level page leveling: bare vs FREE-p vs LLS vs WL-Reviver",
			Run: func(s Scale) (fmt.Stringer, error) {
				return bothWorkloads(s, figLeveler(LevelerSoftWear, "softwear"))
			},
		},
		{
			Name: "attacks",
			Doc:  "hammering and birthday-paradox attack costs, ±WL-Reviver",
			Run:  func(s Scale) (fmt.Stringer, error) { return Attacks(s) },
		},
	}
}

// ExperimentNames returns the registered names in registry order.
func ExperimentNames() []string {
	exps := Experiments()
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.Name
	}
	return names
}

// LookupExperiment returns the registered experiment with the given name,
// or an error listing the known names.
func LookupExperiment(name string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, nil
		}
	}
	known := ExperimentNames()
	sort.Strings(known)
	return Experiment{}, fmt.Errorf("sim: unknown experiment %q (known: %v): %w", name, known, ErrUnknownExperiment)
}

// DeviceStack is a named ECC/leveler/protector stack drawn from the
// experiment registry's sweeps, so a fleet tenant can ask for "the
// stack Figure 6's ECP6-SG-WLR arm runs" by name instead of spelling
// out the component selectors. Names are qualified by the experiment
// that defines them ("fig6/ECP6-SG-WLR", "fig7/FREE-p(10%)", ...).
type DeviceStack struct {
	// Name is the registry key, "<experiment>/<arm>".
	Name string
	// ECC, Leveler, Protector select the stack's components.
	ECC       ECCKind
	Leveler   LevelerKind
	Protector ProtectorKind
	// FreepReserveFraction is FREE-p's pre-reservation (fig7 arms).
	FreepReserveFraction float64
}

// DeviceStacks returns the named stacks in registry order: Figure 6's
// six ECC/leveler arms, Figure 7's protection ladder and Figure 8's
// WLR-vs-LLS pair — every per-engine configuration the paper's
// per-workload figures sweep.
func DeviceStacks() []DeviceStack {
	stacks := []DeviceStack{
		{Name: "fig6/ECP6", ECC: ECCECP6, Leveler: LevelerNone, Protector: ProtectorNone},
		{Name: "fig6/PAYG", ECC: ECCPAYG, Leveler: LevelerNone, Protector: ProtectorNone},
		{Name: "fig6/ECP6-SG", ECC: ECCECP6, Leveler: LevelerStartGap, Protector: ProtectorNone},
		{Name: "fig6/PAYG-SG", ECC: ECCPAYG, Leveler: LevelerStartGap, Protector: ProtectorNone},
		{Name: "fig6/ECP6-SG-WLR", ECC: ECCECP6, Leveler: LevelerStartGap, Protector: ProtectorWLReviver},
		{Name: "fig6/PAYG-SG-WLR", ECC: ECCPAYG, Leveler: LevelerStartGap, Protector: ProtectorWLReviver},
		{Name: "fig7/WL-Reviver", ECC: ECCECP6, Leveler: LevelerStartGap, Protector: ProtectorWLReviver},
	}
	for _, pct := range []float64{0, 0.05, 0.10, 0.15} {
		stacks = append(stacks, DeviceStack{
			Name: fmt.Sprintf("fig7/FREE-p(%.0f%%)", pct*100),
			ECC:  ECCECP6, Leveler: LevelerStartGap, Protector: ProtectorFREEp,
			FreepReserveFraction: pct,
		})
	}
	stacks = append(stacks,
		DeviceStack{Name: "fig8/WL-Reviver", ECC: ECCECP6, Leveler: LevelerStartGap, Protector: ProtectorWLReviver},
		DeviceStack{Name: "fig8/LLS", ECC: ECCECP6, Leveler: LevelerStartGap, Protector: ProtectorLLS},
	)
	// The new-leveler experiments' protection ladders (wolfram, softwear).
	for _, nl := range []struct {
		exp string
		lv  LevelerKind
	}{{"wolfram", LevelerWoLFRaM}, {"softwear", LevelerSoftWear}} {
		exp, lv := nl.exp, nl.lv
		stacks = append(stacks,
			DeviceStack{Name: exp + "/" + lv.String(), ECC: ECCECP6, Leveler: lv, Protector: ProtectorNone},
			DeviceStack{Name: exp + "/" + lv.String() + "-FREE-p(10%)", ECC: ECCECP6, Leveler: lv, Protector: ProtectorFREEp, FreepReserveFraction: 0.10},
			DeviceStack{Name: exp + "/" + lv.String() + "-LLS", ECC: ECCECP6, Leveler: lv, Protector: ProtectorLLS},
			DeviceStack{Name: exp + "/" + lv.String() + "-WLR", ECC: ECCECP6, Leveler: lv, Protector: ProtectorWLReviver},
		)
	}
	return stacks
}

// DeviceStackNames returns the registered stack names in order.
func DeviceStackNames() []string {
	stacks := DeviceStacks()
	names := make([]string, len(stacks))
	for i, s := range stacks {
		names[i] = s.Name
	}
	return names
}

// LookupDeviceStack returns the named stack, or an error listing the
// known names.
func LookupDeviceStack(name string) (DeviceStack, error) {
	for _, s := range DeviceStacks() {
		if s.Name == name {
			return s, nil
		}
	}
	known := DeviceStackNames()
	sort.Strings(known)
	return DeviceStack{}, fmt.Errorf("sim: unknown device stack %q (known: %v): %w", name, known, ErrUnknownExperiment)
}

// ResultPair bundles a per-workload figure's runs over the two reference
// workloads into one result, in presentation order.
type ResultPair struct {
	First  fmt.Stringer
	Second fmt.Stringer
}

// String renders both workloads' results.
func (p ResultPair) String() string { return p.First.String() + "\n" + p.Second.String() }

// Halves returns the per-workload results in presentation order.
func (p ResultPair) Halves() []fmt.Stringer { return []fmt.Stringer{p.First, p.Second} }

// TotalWrites sums the simulated write volume across both halves.
func (p ResultPair) TotalWrites() uint64 {
	var sum uint64
	for _, h := range p.Halves() {
		if wc, ok := h.(interface{ TotalWrites() uint64 }); ok {
			sum += wc.TotalWrites()
		}
	}
	return sum
}

// bothWorkloads runs a per-workload curve figure for the reference
// workloads. Both workloads' jobs share one pool, so no worker idles at
// a barrier between the halves; each half is assembled from its own
// slice of the results, exactly as if the halves had run one after the
// other.
func bothWorkloads[T fmt.Stringer](s Scale, build func(Scale, string) curveFig[T]) (fmt.Stringer, error) {
	figs := make([]curveFig[T], len(ReferenceWorkloads))
	var jobs []Job[stats.Curve]
	for i, w := range ReferenceWorkloads {
		if err := validateWorkload(w); err != nil {
			return nil, err
		}
		figs[i] = build(s, w)
		jobs = append(jobs, figs[i].jobs...)
	}
	results := RunJobs(jobs, s.Workers)
	halves := make([]fmt.Stringer, len(figs))
	for i, f := range figs {
		curves, writes, err := collectResults(results[:len(f.jobs)])
		if err != nil {
			return nil, err
		}
		results = results[len(f.jobs):]
		halves[i] = f.assemble(curves, writes)
	}
	return ResultPair{First: halves[0], Second: halves[1]}, nil
}
