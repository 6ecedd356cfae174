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
// here surfaces it everywhere. The curve figures' entries are read off
// their tables below.
func Experiments() []Experiment {
	exps := []Experiment{
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
	}
	exps = append(exps, curveExperiments(paperFigures())...)
	exps = append(exps, Experiment{
		Name: "table2",
		Doc:  "access time and usable space at 10/20/30% failed blocks",
		Run: func(s Scale) (fmt.Stringer, error) {
			return Table2(s, []string{"mg", "ocean"})
		},
	})
	exps = append(exps, curveExperiments(levelerLadders())...)
	return append(exps, Experiment{
		Name: "attacks",
		Doc:  "hammering and birthday-paradox attack costs, ±WL-Reviver",
		Run:  func(s Scale) (fmt.Stringer, error) { return Attacks(s) },
	})
}

// curveExperiments registers each curve figure over the reference
// workloads.
func curveExperiments(figs []curveFigure) []Experiment {
	exps := make([]Experiment, len(figs))
	for i, f := range figs {
		exps[i] = Experiment{
			Name: f.name,
			Doc:  f.doc,
			Run:  func(s Scale) (fmt.Stringer, error) { return bothWorkloads(s, f) },
		}
	}
	return exps
}

// paperFigures is the table of the paper's per-workload curve figures
// (§IV, Figures 6–8), one row per figure and one DeviceStack per arm. A
// new curve figure is one row here.
func paperFigures() []curveFigure {
	sg := func(name string, prot ProtectorKind, reserve float64) DeviceStack {
		return DeviceStack{Name: name, ECC: ECCECP6, Leveler: LevelerStartGap, Protector: prot, FreepReserveFraction: reserve}
	}
	return []curveFigure{
		{
			// The paper plots block survival; with the OS retirement
			// cascade modelled, the equivalent decay is expressed in
			// usable capacity (EXPERIMENTS.md discusses the
			// correspondence).
			name:  "fig6",
			doc:   "capacity-survival curves under six ECC/leveler stacks",
			title: "Figure 6 — surviving capacity vs writes/block (%s)",
			floor: 0.70,
			arms: []DeviceStack{
				{Name: "ECP6", ECC: ECCECP6, Leveler: LevelerNone, Protector: ProtectorNone},
				{Name: "PAYG", ECC: ECCPAYG, Leveler: LevelerNone, Protector: ProtectorNone},
				{Name: "ECP6-SG", ECC: ECCECP6, Leveler: LevelerStartGap, Protector: ProtectorNone},
				{Name: "PAYG-SG", ECC: ECCPAYG, Leveler: LevelerStartGap, Protector: ProtectorNone},
				{Name: "ECP6-SG-WLR", ECC: ECCECP6, Leveler: LevelerStartGap, Protector: ProtectorWLReviver},
				{Name: "PAYG-SG-WLR", ECC: ECCPAYG, Leveler: LevelerStartGap, Protector: ProtectorWLReviver},
			},
		},
		{
			name:  "fig7",
			doc:   "user-usable space, WL-Reviver vs FREE-p reservations",
			title: "Figure 7 — user-usable space vs writes/block (%s), ECP6+SG",
			floor: 0.50,
			arms: []DeviceStack{
				sg("WL-Reviver", ProtectorWLReviver, 0),
				sg("FREE-p(0%)", ProtectorFREEp, 0),
				sg("FREE-p(5%)", ProtectorFREEp, 0.05),
				sg("FREE-p(10%)", ProtectorFREEp, 0.10),
				sg("FREE-p(15%)", ProtectorFREEp, 0.15),
			},
		},
		{
			name:  "fig8",
			doc:   "software-usable space, WL-Reviver vs LLS",
			title: "Figure 8 — software-usable space vs writes/block (%s), ECP6+SG",
			floor: 0.50,
			arms:  []DeviceStack{sg("WL-Reviver", ProtectorWLReviver, 0), sg("LLS", ProtectorLLS, 0)},
		},
	}
}

// levelerLadders is the table of related-work levelers run through the
// Figure 7/8 protection ladder — bare vs FREE-p(10%) vs LLS vs
// WL-Reviver under ECP6 — the "any wear-leveling technique" generality
// check. A new leveler's ladder is one row here.
func levelerLadders() []curveFigure {
	return []curveFigure{
		ladder("wolfram", "WoLFRaM decoder remapping: bare vs FREE-p vs LLS vs WL-Reviver", LevelerWoLFRaM),
		ladder("softwear", "SoftWear OS-level page leveling: bare vs FREE-p vs LLS vs WL-Reviver", LevelerSoftWear),
	}
}

// ladder is one leveler's protection-ladder figure.
func ladder(name, doc string, lv LevelerKind) curveFigure {
	arm := func(suffix string, prot ProtectorKind, reserve float64) DeviceStack {
		return DeviceStack{Name: lv.String() + suffix, ECC: ECCECP6, Leveler: lv, Protector: prot, FreepReserveFraction: reserve}
	}
	return curveFigure{
		name:  name,
		doc:   doc,
		title: name + " — software-usable space vs writes/block (%s), ECP6",
		floor: 0.50,
		arms: []DeviceStack{
			arm("", ProtectorNone, 0),
			arm("-FREE-p(10%)", ProtectorFREEp, 0.10),
			arm("-LLS", ProtectorLLS, 0),
			arm("-WLR", ProtectorWLReviver, 0),
		},
	}
}

// curveFigures returns both tables in registry order.
func curveFigures() []curveFigure { return append(paperFigures(), levelerLadders()...) }

// lookupCurveFigure returns the named curve figure, or an error listing
// the known names.
func lookupCurveFigure(name string) (curveFigure, error) {
	var known []string
	for _, f := range curveFigures() {
		if f.name == name {
			return f, nil
		}
		known = append(known, f.name)
	}
	sort.Strings(known)
	return curveFigure{}, fmt.Errorf("sim: unknown curve figure %q (known: %v): %w", name, known, ErrUnknownExperiment)
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
	// FreepReserveFraction is FREE-p's pre-reservation (FREE-p arms).
	FreepReserveFraction float64
}

// Apply selects the stack's components in cfg.
func (st DeviceStack) Apply(cfg Config) Config {
	cfg.ECC, cfg.Leveler, cfg.Protector = st.ECC, st.Leveler, st.Protector
	cfg.FreepReserveFraction = st.FreepReserveFraction
	return cfg
}

// DeviceStacks returns the named stacks in registry order: every arm of
// every curve figure (Figures 6–8, then the leveler ladders), read off
// the figure tables.
func DeviceStacks() []DeviceStack {
	var stacks []DeviceStack
	for _, f := range curveFigures() {
		for _, arm := range f.arms {
			arm.Name = f.name + "/" + arm.Name
			stacks = append(stacks, arm)
		}
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

// bothWorkloads runs a curve figure for the reference workloads. Both
// workloads' jobs share one pool, so no worker idles at a barrier
// between the halves; each half is assembled from its own slice of the
// results, exactly as if the halves had run one after the other.
func bothWorkloads(s Scale, f curveFigure) (fmt.Stringer, error) {
	var jobs []Job[stats.Curve]
	for _, w := range ReferenceWorkloads {
		if err := validateWorkload(w); err != nil {
			return nil, err
		}
		jobs = append(jobs, f.jobs(s, w)...)
	}
	results := RunJobs(jobs, s.Workers)
	halves := make([]fmt.Stringer, len(ReferenceWorkloads))
	for i, w := range ReferenceWorkloads {
		curves, writes, err := collectResults(results[i*len(f.arms) : (i+1)*len(f.arms)])
		if err != nil {
			return nil, err
		}
		halves[i] = f.result(w, curves, writes)
	}
	return ResultPair{First: halves[0], Second: halves[1]}, nil
}
