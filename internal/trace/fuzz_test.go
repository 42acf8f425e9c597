package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseTextLine checks the text parser never panics and that any
// line it accepts re-serializes to an equivalent record.
func FuzzParseTextLine(f *testing.F) {
	f.Add("user load 0x10 0x20 3")
	f.Add("kernel store 0xffff800000001040 0xffff800000400abc 12")
	f.Add("user ifetch 0x0 0x0 0")
	f.Add("")
	f.Add("user load 0x10")
	f.Add("daemon jump zz zz -1")
	f.Fuzz(func(t *testing.T, line string) {
		a, err := ParseTextLine(line)
		if err != nil {
			return
		}
		// Accepted records are valid and round-trip.
		if verr := a.Validate(); verr != nil {
			t.Fatalf("parsed invalid record from %q: %v", line, verr)
		}
		var buf bytes.Buffer
		if _, werr := WriteText(&buf, NewSliceSource([]Access{a})); werr != nil {
			t.Fatalf("re-serialize failed: %v", werr)
		}
		b, err2 := ParseTextLine(strings.TrimSpace(buf.String()))
		if err2 != nil {
			t.Fatalf("round trip failed for %q: %v", line, err2)
		}
		if a != b {
			t.Fatalf("round trip mismatch: %+v vs %+v", a, b)
		}
	})
}

// FuzzBinaryReader checks the binary decoder never panics on arbitrary
// input and never yields invalid records.
func FuzzBinaryReader(f *testing.F) {
	// Seed with a valid trace, a truncated one, and garbage.
	var valid bytes.Buffer
	w := NewWriter(&valid)
	_ = w.Write(Access{Addr: 0x40, PC: 0x80, Gap: 1, Op: Store, Domain: Kernel})
	_ = w.Flush()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-3])
	f.Add([]byte("MCTR\x01\x00\x00\x00garbage"))
	f.Add([]byte("NOPE"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		count := 0
		for {
			a, ok := r.Next()
			if !ok {
				break
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("decoder yielded invalid record: %v", err)
			}
			count++
			if count > 1<<20 {
				t.Fatal("decoder yielded implausibly many records")
			}
		}
	})
}

// FuzzReuseAnalyzer decodes each byte into one access — block b/3,
// domain b%3, where 2 is invalid and must be skipped — and checks the
// analyzer against the naive reference on every ReuseStats field.
func FuzzReuseAnalyzer(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 4, 1})
	f.Add([]byte{2, 5, 8, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 3, 6, 9, 1, 4, 7}, 200))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		recs := make([]Access, len(data))
		for i, b := range data {
			recs[i] = Access{Addr: uint64(b/3) * 64, Op: Load, Domain: Domain(b % 3)}
		}
		checkAgainstNaive(t, recs)
	})
}
