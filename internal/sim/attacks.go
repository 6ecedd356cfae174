package sim

import (
	"fmt"
	"strings"

	"wlreviver/internal/stats"
	"wlreviver/internal/trace"
)

// AttackRow is one (attack, scheme) lifetime measurement.
type AttackRow struct {
	Attack string
	Scheme string
	// LifetimeWPB is writes-per-block until 30% capacity loss; Survived
	// is set when the attack budget ran out first.
	LifetimeWPB float64
	Survived    bool
}

// AttacksResult measures malicious wear-out resistance: the paper (§IV-B)
// argues WL-Reviver's benefit persists under "malicious attacks,
// including birthday paradox attack" — this experiment quantifies it.
type AttacksResult struct {
	Rows []AttackRow
	// SimWrites is the total simulated writes across all runs.
	SimWrites uint64
}

// TotalWrites reports the experiment's simulated write volume.
func (r *AttacksResult) TotalWrites() uint64 { return r.SimWrites }

// Attacks runs address-hammering and birthday-paradox attacks against
// ECP6 + Start-Gap with and without WL-Reviver, reporting the attacker's
// cost to destroy 30% of the memory's capacity — one job per
// (attack, scheme) engine.
func Attacks(s Scale) (*AttacksResult, error) {
	attacks := []struct {
		name string
		make func(seed uint64) (trace.Generator, error)
	}{
		{"hammer-1", func(seed uint64) (trace.Generator, error) {
			return trace.NewHammer(s.Blocks, []uint64{s.Blocks / 3})
		}},
		{"hammer-16", func(seed uint64) (trace.Generator, error) {
			targets := make([]uint64, 16)
			for i := range targets {
				targets[i] = uint64(i) * 37 % s.Blocks
			}
			return trace.NewHammer(s.Blocks, targets)
		}},
		{"birthday-16", func(seed uint64) (trace.Generator, error) {
			return trace.NewBirthdayParadox(s.Blocks, 16, 4*s.GapWritePeriod*s.Blocks/64, seed)
		}},
	}
	var jobs []Job[stats.Curve]
	for _, atk := range attacks {
		build := func(cfg Config) (Machine, error) {
			gen, err := atk.make(s.Seed)
			if err != nil {
				return nil, err
			}
			return NewEngine(cfg, gen)
		}
		for _, st := range plusMinusWLR {
			jobs = append(jobs, curveJob(s, "attacks/"+atk.name+"/"+st.Name, atk.name, st, build, usable, 0.70))
		}
	}
	curves, writes, err := CollectJobs(jobs, s.Workers)
	if err != nil {
		return nil, err
	}
	res := &AttacksResult{SimWrites: writes}
	for i, c := range curves {
		last := c.Points[len(c.Points)-1]
		res.Rows = append(res.Rows, AttackRow{
			Attack:      c.Name,
			Scheme:      plusMinusWLR[i%len(plusMinusWLR)].Name,
			LifetimeWPB: last.X,
			Survived:    last.Y > 0.70,
		})
	}
	return res, nil
}

// String formats the attack table.
func (r *AttacksResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Malicious wear-out attacks — attacker writes/block to destroy 30%% of capacity\n")
	fmt.Fprintf(&b, "%-14s %-14s %14s\n", "Attack", "Scheme", "Cost")
	for _, row := range r.Rows {
		cost := fmt.Sprintf("%.0f", row.LifetimeWPB)
		if row.Survived {
			cost = fmt.Sprintf(">%.0f", row.LifetimeWPB)
		}
		fmt.Fprintf(&b, "%-14s %-14s %14s\n", row.Attack, row.Scheme, cost)
	}
	return b.String()
}
