package hdf5

import (
	"encoding/base64"
	"unicode/utf8"
)

// decodeCanonical is decodeObject's fast path. v points to one of the five
// extent types; payload is accepted only in the form json.Marshal writes
// for that type:
//   - no whitespace, the fields in declaration order, an omitempty field
//     present or absent, nothing after the closing brace;
//   - integers without a sign on zero, leading zeros, fraction or
//     exponent, and within the field's range;
//   - strings without a backslash or a control byte, and valid UTF-8;
//   - Names as standard base64 or null; arrays of ints or entries, or null.
//
// Like json.Unmarshal it sets only the fields the payload names (lookup
// relies on that merge), and it decodes [] and "" to empty, null to nil
// slices. Any other payload — in practice a torn or zeroed extent — leaves v
// untouched and reports false; decodeObject then runs json.Unmarshal, whose
// error text reports quote. FuzzDecodeCanonical holds every accepted
// payload to json.Unmarshal.
func decodeCanonical(payload []byte, v any) bool {
	d := &canonReader{b: payload}
	switch p := v.(type) {
	case *superBlock:
		x := *p
		if d.lit(`{"root":`) && canonInt(d, &x.Root) &&
			d.lit(`,"eof":`) && canonInt(d, &x.EOF) &&
			d.lit(`,"status":`) && canonInt(d, &x.Status) && d.end() {
			*p = x
			return true
		}
	case *objectHeader:
		x := *p
		if d.lit(`{"group":`) && d.boolean(&x.Group) &&
			canonOptInt(d, `,"btree":`, &x.Btree) && canonOptInt(d, `,"heap":`, &x.Heap) &&
			canonOptInt(d, `,"rows":`, &x.Rows) && canonOptInt(d, `,"cols":`, &x.Cols) &&
			canonOptInt(d, `,"chunktree":`, &x.ChunkTree) &&
			(!d.lit(`,"attrs":`) || d.str(&x.Attrs)) && d.end() {
			*p = x
			return true
		}
	case *treeNode:
		x := *p
		if d.lit(`{"leaf":`) && d.boolean(&x.Leaf) &&
			d.lit(`,"children":`) && d.int64s(&x.Children) && d.end() {
			*p = x
			return true
		}
	case *symbolNode:
		x := *p
		if d.lit(`{"entries":`) && d.entries(&x.Entries) && d.end() {
			*p = x
			return true
		}
	case *localHeap:
		x := *p
		if d.lit(`{"used":`) && canonInt(d, &x.Used) &&
			d.lit(`,"names":`) && d.names(&x.Names) && d.end() {
			*p = x
			return true
		}
	}
	return false
}

// canonReader is a cursor over a canonical payload. Every method reports
// whether the bytes at the cursor had the expected form; the cursor is
// only meaningful while they all succeed.
type canonReader struct {
	b []byte
	i int
}

// lit consumes s if the bytes at the cursor are s.
func (d *canonReader) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// end consumes the closing brace, which must be the payload's last byte.
func (d *canonReader) end() bool { return d.lit("}") && d.i == len(d.b) }

func (d *canonReader) boolean(dst *bool) bool {
	switch {
	case d.lit("true"):
		*dst = true
	case d.lit("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// canonInt reads a canonical integer that fits T.
func canonInt[T int | int64](d *canonReader, dst *T) bool {
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	digits := b[start:i]
	// 19 digits always fit a uint64; more never fit an int64.
	if len(digits) == 0 || len(digits) > 19 || digits[0] == '0' && (len(digits) > 1 || neg) {
		return false
	}
	var u uint64
	for _, c := range digits {
		u = u*10 + uint64(c-'0')
	}
	var n int64
	switch {
	case neg && u <= 1<<63:
		n = -int64(u)
	case !neg && u < 1<<63:
		n = int64(u)
	default:
		return false
	}
	if int64(T(n)) != n {
		return false
	}
	*dst, d.i = T(n), i
	return true
}

// canonOptInt reads an omitempty integer field: key and value, or nothing.
func canonOptInt[T int | int64](d *canonReader, key string, dst *T) bool {
	return !d.lit(key) || canonInt(d, dst)
}

// quoted consumes a string without escapes or control bytes and returns
// its contents.
func (d *canonReader) quoted() ([]byte, bool) {
	if !d.lit(`"`) {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

func (d *canonReader) str(dst *string) bool {
	s, ok := d.quoted()
	if !ok || !utf8.Valid(s) {
		return false
	}
	*dst = string(s)
	return true
}

// names reads a []byte the way json.Unmarshal does: null is nil, a string
// is decoded with the same base64.StdEncoding call.
func (d *canonReader) names(dst *[]byte) bool {
	if d.lit("null") {
		*dst = nil
		return true
	}
	s, ok := d.quoted()
	if !ok {
		return false
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(out, s)
	if err != nil {
		return false
	}
	*dst = out[:n]
	return true
}

func (d *canonReader) int64s(dst *[]int64) bool {
	if d.lit("null") {
		*dst = nil
		return true
	}
	if !d.lit("[") {
		return false
	}
	out := []int64{}
	if d.lit("]") {
		*dst = out
		return true
	}
	for {
		var n int64
		if !canonInt(d, &n) {
			return false
		}
		out = append(out, n)
		if d.lit("]") {
			*dst = out
			return true
		}
		if !d.lit(",") {
			return false
		}
	}
}

func (d *canonReader) entries(dst *[]symbolEntry) bool {
	if d.lit("null") {
		*dst = nil
		return true
	}
	if !d.lit("[") {
		return false
	}
	out := []symbolEntry{}
	if d.lit("]") {
		*dst = out
		return true
	}
	for {
		var e symbolEntry
		if !d.lit(`{"name":`) || !canonInt(d, &e.NameOff) ||
			!d.lit(`,"ohdr":`) || !canonInt(d, &e.Ohdr) || !d.lit("}") {
			return false
		}
		out = append(out, e)
		if d.lit("]") {
			*dst = out
			return true
		}
		if !d.lit(",") {
			return false
		}
	}
}
