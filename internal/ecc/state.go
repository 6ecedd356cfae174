package ecc

import (
	"fmt"

	"wlreviver/internal/ckpt"
)

// sparseU16 encodes a sparse per-block uint16 map as a sorted-key run of
// (block, value) pairs — the shared wire shape of the schemes' usage
// tables since the dense arrays became maps.
func saveSparseU16(enc *ckpt.Encoder, m map[uint64]uint16) {
	enc.U32(uint32(len(m)))
	for _, b := range ckpt.KeysU64(m) {
		enc.U64(b)
		enc.U16(m[b])
	}
}

// loadSparseU16 decodes a saveSparseU16 run, validating the count
// against the section's remaining bytes and the block space, and strict
// key order.
func loadSparseU16(dec *ckpt.Decoder, numBlocks uint64, scheme string) (map[uint64]uint16, error) {
	n := dec.Count(10) // u64 block + u16 value per entry
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if uint64(n) > numBlocks {
		return nil, fmt.Errorf("ecc: %s checkpoint has %d usage entries for %d blocks", scheme, n, numBlocks)
	}
	m := make(map[uint64]uint16, n)
	var prev uint64
	for i := 0; i < n; i++ {
		b := dec.U64()
		v := dec.U16()
		if dec.Err() != nil {
			return nil, dec.Err()
		}
		if i > 0 && b <= prev {
			return nil, fmt.Errorf("ecc: %s checkpoint usage entries out of order", scheme)
		}
		if b >= numBlocks {
			return nil, fmt.Errorf("ecc: %s checkpoint usage entry for block %d outside %d blocks", scheme, b, numBlocks)
		}
		prev = b
		m[b] = v
	}
	return m, nil
}

// SaveState serializes ECP's per-block correction usage and dead flags.
func (e *ECP) SaveState(enc *ckpt.Encoder) {
	saveSparseU16(enc, e.used)
	enc.U64s(e.deadFlag.Words())
}

// LoadState restores state written by SaveState into a scheme built for
// the identical device geometry.
func (e *ECP) LoadState(dec *ckpt.Decoder) error {
	used, err := loadSparseU16(dec, e.numBlocks, "ECP")
	if err != nil {
		return err
	}
	dec.U64sInto(e.deadFlag.Words())
	if err := dec.Err(); err != nil {
		return err
	}
	e.used = used
	return nil
}

// SaveState serializes PAYG's local usage, pool occupancy and dead flags.
func (p *PAYG) SaveState(enc *ckpt.Encoder) {
	saveSparseU16(enc, p.localUsed)
	enc.I32s(p.setFree)
	enc.I64(p.overflow)
	enc.U64s(p.deadFlag.Words())
	enc.U64(p.pooledUsed)
}

// LoadState restores state written by SaveState into a scheme built for
// the identical device geometry.
func (p *PAYG) LoadState(dec *ckpt.Decoder) error {
	localUsed, err := loadSparseU16(dec, p.numBlocks, "PAYG")
	if err != nil {
		return err
	}
	setFree := dec.I32s()
	overflow := dec.I64()
	dec.U64sInto(p.deadFlag.Words())
	pooledUsed := dec.U64()
	if err := dec.Err(); err != nil {
		return err
	}
	if len(setFree) != len(p.setFree) {
		return fmt.Errorf("ecc: PAYG checkpoint geometry mismatch")
	}
	p.localUsed = localUsed
	copy(p.setFree, setFree)
	p.overflow = overflow
	p.pooledUsed = pooledUsed
	return nil
}
