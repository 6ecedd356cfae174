// Reboot: WL-Reviver survives power cycles (paper §III-A). The
// retirement bitmap — one bit per page, written at most once in the
// chip's life — persists in PCM, and the framework's pointers live in
// PCM blocks anyway, so after a reboot the OS reloads the bitmap and the
// controller reloads its links; nothing else is needed.
//
// This example wires the component stack directly (the PCM device and
// the wear-leveling registers are the non-volatile parts that survive;
// the OS model and the framework tables are rebuilt), wears the memory
// down, snapshots, "reboots", restores, and shows the system continuing
// with every failure still hidden. It exits non-zero if the reboot loses
// a link, a retired page or a spare. The snapshot is a checkpoint-format
// image (internal/ckpt): the retirement bitmap plus the framework's
// shadow arena, CRC-checked on restore.
package main

import (
	"fmt"
	"log"

	"wlreviver/internal/ecc"
	"wlreviver/internal/mc"
	"wlreviver/internal/osmodel"
	"wlreviver/internal/pcm"
	"wlreviver/internal/reviver"
	"wlreviver/internal/trace"
	"wlreviver/internal/wear"
)

const (
	blocks    = 1 << 12
	pageSize  = 16
	endurance = 1_200
)

func main() {
	// --- the non-volatile parts: PCM chip + wear-leveling registers ---
	dev, err := pcm.NewDevice(pcm.Config{
		NumBlocks: blocks + 1, BlockBytes: 64, CellsPerBlock: 512,
		MeanEndurance: endurance, LifetimeCoV: 0.2, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	scheme, err := ecc.NewECP(6, dev.NumBlocks())
	if err != nil {
		log.Fatal(err)
	}
	be := &mc.Backend{Dev: dev, ECC: scheme}
	sg, err := wear.NewStartGap(wear.StartGapConfig{
		NumPAs: blocks, GapWritePeriod: 50, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	// --- first boot ---
	osm, err := osmodel.New(blocks, pageSize)
	if err != nil {
		log.Fatal(err)
	}
	rv, err := reviver.New(reviver.Config{}, sg, be, osm)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := trace.NewBenchmark("fft", blocks, pageSize, 11)
	if err != nil {
		log.Fatal(err)
	}

	drive := func(rv *reviver.Reviver, osm *osmodel.Model, n int) {
		for i := 0; i < n; i++ {
			v := gen.Next()
			for attempt := 0; attempt < int(osm.NumPages())+2; attempt++ {
				pa, ok := osm.Translate(v)
				if !ok {
					return
				}
				res := rv.Write(pa, uint64(i))
				if !res.Retry {
					rv.ResumePending()
					sg.NoteWrite(pa, rv)
					break
				}
			}
		}
	}

	drive(rv, osm, 1_500_000)
	for rv.HasPending() {
		drive(rv, osm, 1)
	}
	fmt.Printf("before reboot: %d dead blocks hidden behind %d retired pages (%d spares left)\n",
		rv.LinkedFailures(), osm.RetiredPages(), rv.AvailableSpares())

	snap, err := rv.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d bytes (bitmap + links + spares)\n", len(snap))

	// --- reboot: OS and controller tables rebuilt, chip untouched ---
	osm2, err := osmodel.New(blocks, pageSize)
	if err != nil {
		log.Fatal(err)
	}
	rv2, err := reviver.New(reviver.Config{}, sg, be, osm2)
	if err != nil {
		log.Fatal(err)
	}
	if err := rv2.Restore(snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after reboot:  %d dead blocks hidden behind %d retired pages (%d spares left)\n",
		rv2.LinkedFailures(), osm2.RetiredPages(), rv2.AvailableSpares())
	if rv2.LinkedFailures() != rv.LinkedFailures() || osm2.RetiredPages() != osm.RetiredPages() ||
		rv2.AvailableSpares() != rv.AvailableSpares() {
		log.Fatal("reboot lost state: the counts after it differ from those before it")
	}

	// --- second life: keep wearing, failures keep being hidden ---
	drive(rv2, osm2, 1_000_000)
	st2 := rv2.Stats()
	fmt.Printf("second life:   +%d more failures hidden, +%d pages acquired — business as usual\n",
		rv2.LinkedFailures()-rv.LinkedFailures(), st2.PagesAcquired)
}
