package trace

// SliceCursor is a replay position over an already-materialized record
// slice — the "hot tier" counterpart of Cursor. Where Cursor decodes
// the packed streams record by record, SliceCursor replays records that
// already exist in memory, and its Batch method exposes them as
// zero-copy sub-slices: DecodeFrame precomputes frame records straight
// out of the shared records without staging them through a buffer, so
// a hot replay pays no decode and no copy at all.
//
// The underlying slice is shared and must be treated as immutable; any
// number of SliceCursors may replay it concurrently.
type SliceCursor struct {
	recs []Access
	i    int
}

// NewSliceCursor returns a cursor positioned at the first record.
func NewSliceCursor(recs []Access) SliceCursor { return SliceCursor{recs: recs} }

// Len reports the total number of records in the underlying trace.
func (c *SliceCursor) Len() int { return len(c.recs) }

// Remaining reports how many records are left to replay.
func (c *SliceCursor) Remaining() int { return len(c.recs) - c.i }

// Reset rewinds the cursor to the beginning of the trace.
func (c *SliceCursor) Reset() { c.i = 0 }

// Batch returns up to max records as a sub-slice of the underlying
// trace, advancing the cursor past them; nil at end of trace. Callers
// must not modify the returned records.
func (c *SliceCursor) Batch(max int) []Access {
	n := len(c.recs) - c.i
	if n <= 0 || max <= 0 {
		return nil
	}
	if n > max {
		n = max
	}
	b := c.recs[c.i : c.i+n : c.i+n]
	c.i += n
	return b
}

// Next returns the next record, implementing Source.
func (c *SliceCursor) Next() (Access, bool) {
	if c.i >= len(c.recs) {
		return Access{}, false
	}
	a := c.recs[c.i]
	c.i++
	return a, true
}
