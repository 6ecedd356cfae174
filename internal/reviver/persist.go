package reviver

// Reboot support (paper §III-A): the retirement bitmap — one bit per
// page, set at most once in the chip's lifetime — is persisted in PCM so
// a rebooting OS knows which pages to keep away from, and the framework's
// pointers live in PCM anyway (in-block pointers in the failed blocks,
// inverse pointers in the acquired pages' pointer sections), so the
// controller's tables can be rebuilt by reading them back — "even in very
// rare cases where the pointers are lost, they can be rebuilt by scanning
// the entire PCM".
//
// The simulator keeps that PCM-resident metadata authoritatively in the
// shadow arena (see shadowNode); Snapshot models reading it out of the
// chip at shutdown (or the full scan), and Restore models the reboot:
// the OS reloads the bitmap and the controller reloads its arena. The
// reboot image is a ckpt image with one section holding the bitmap and
// then the arena exactly as the checkpoint section starts (encodeArena),
// so it is framed and CRC-checked by ckpt and validated by the same
// decodeArena as LoadState. Restore adds only the checks that need the
// chip; a damaged image is rejected with an error, never a panic.

import (
	"fmt"

	"wlreviver/internal/ckpt"
)

// rebootSection names the reboot image's one ckpt section.
const rebootSection = "reboot"

// Snapshot serialises the framework's PCM-resident metadata: the OS
// retirement bitmap and the shadow arena (links, spare pool and
// inverse-pointer slot assignments), verbatim. It fails while a
// wear-leveling delivery is suspended (a clean shutdown completes
// pending work first; hardware would drain the migration buffer).
func (r *Reviver) Snapshot() ([]byte, error) {
	if len(r.pending) > 0 {
		return nil, fmt.Errorf("reviver: cannot snapshot with %d suspended deliveries", len(r.pending))
	}
	return rebootImage(r.os.Bitmap(), r.nodes, r.freeHead), nil
}

// rebootImage frames a retirement bitmap and an arena as a reboot image.
func rebootImage(bitmap []byte, nodes []shadowNode, freeHead uint32) []byte {
	e := ckpt.NewEncoder()
	e.Begin(rebootSection)
	e.String(string(bitmap))
	encodeArena(e, nodes, freeHead)
	e.End()
	return e.Finish()
}

// Restore rebuilds the framework's state from a Snapshot after a reboot:
// the OS model reloads the retirement bitmap and the controller reloads
// the arena. The device (the PCM itself, with its wear and failures) and
// the wear-leveling scheme's registers are non-volatile and must be the
// ones the snapshot was taken against; Restore validates the arena
// against them: every linked DA must be dead, and every shadow PA and
// pointer slot must lie in a retired page. On error the framework is
// unchanged, though the OS model may already hold the image's bitmap.
func (r *Reviver) Restore(data []byte) error {
	dec, err := ckpt.NewDecoder(data)
	if err != nil {
		return err
	}
	if err := dec.Section(rebootSection); err != nil {
		return err
	}
	bitmap := []byte(dec.String())
	nodes, freeHead, ix, err := r.decodeArena(dec)
	if err != nil {
		return err
	}
	if err := dec.Close(); err != nil {
		return err
	}
	if err := r.os.LoadBitmap(bitmap); err != nil {
		return err
	}
	// decodeArena bounded every PA and slot by the PA space.
	for _, n := range nodes {
		if n.da != noDA && !r.be.Dead(n.da) {
			return fmt.Errorf("reviver: reboot image links DA %d but the chip says it is healthy", n.da)
		}
		if !r.os.Retired(n.pa) {
			return fmt.Errorf("reviver: reboot image shadow PA %d is not in a retired page", n.pa)
		}
		if n.slot != noSlot && !r.os.Retired(n.slot) {
			return fmt.Errorf("reviver: reboot image pointer slot %d is not in a retired page", n.slot)
		}
	}
	r.nodes = nodes
	r.freeHead = freeHead
	r.setIndexes(ix)
	r.pending = nil
	r.pendVals = make(map[uint64]pendingVal)
	r.orphans = make(map[uint64]struct{})
	return nil
}
