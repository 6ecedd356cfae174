package stats

import "wlreviver/internal/ckpt"

// SaveState serializes the curve: name, then the points in order.
func (c *Curve) SaveState(e *ckpt.Encoder) {
	e.String(c.Name)
	e.U32(uint32(len(c.Points)))
	for _, p := range c.Points {
		e.F64(p.X)
		e.F64(p.Y)
	}
}

// LoadState restores a curve written by SaveState, replacing the
// receiver's contents.
func (c *Curve) LoadState(dec *ckpt.Decoder) error {
	name := dec.String()
	n := dec.Count(16) // two 8-byte coordinates per point
	if err := dec.Err(); err != nil {
		return err
	}
	points := make([]Point, n)
	for i := range points {
		points[i] = Point{X: dec.F64(), Y: dec.F64()}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	c.Name = name
	c.Points = points
	return nil
}
