package graphio

import (
	"unicode"
	"unicode/utf8"
)

// Byte classes for the tokenizer.
const (
	fieldByte = iota // ASCII, not white space
	spaceByte        // ASCII white space: the bytes below utf8.RuneSelf that unicode.IsSpace accepts
	wideByte         // ≥ utf8.RuneSelf: starts a rune that must be decoded
)

// byteClass classifies every byte value with one table lookup — the same
// ASCII white space table strings.Fields and strings.TrimSpace consult.
var byteClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = wideByte
	}
	for _, c := range "\t\n\v\f\r " {
		t[c] = spaceByte
	}
	return t
}()

// maxFields is the most fields any well-formed line of the text formats
// carries ("u v p", "l r p", "bipartite nL nR").
const maxFields = 3

// lineFields is the tokenizer both text formats share. split cuts a line at
// Unicode white space exactly where strings.Fields would and trims it
// exactly as strings.TrimSpace would, but in place: fields are sub-slices of
// the scanner's line buffer, so a line costs no allocation. ASCII bytes are
// classified by table lookup; a byte ≥ 0x80 is decoded as a rune (an invalid
// byte as utf8.RuneError of width 1, as ranging over a string does) and
// counts as white space when unicode.IsSpace says so.
//
// Field bounds are kept as offsets into line, not as slices, so splitting a
// line stores no pointers (and pays no GC write barrier per field).
type lineFields struct {
	line       []byte
	n          int            // how many fields the line has in total
	from, to   [maxFields]int // bounds of the first maxFields fields
	start, end int            // bounds of the line without surrounding white space
}

// field returns field k < min(n, maxFields) of the last line split.
func (lf *lineFields) field(k int) []byte { return lf.line[lf.from[k]:lf.to[k]] }

// trimmed returns the last line split without leading and trailing white
// space, as strings.TrimSpace would.
func (lf *lineFields) trimmed() []byte { return lf.line[lf.start:lf.end] }

// split tokenizes line, overwriting the previous line's fields.
func (lf *lineFields) split(line []byte) {
	lf.line = line
	n, start, end := 0, 0, 0
	for i := 0; i < len(line); {
		switch byteClass[line[i]] {
		case spaceByte:
			i++
			continue
		case wideByte:
			if size, space := wideRune(line[i:]); space {
				i += size
				continue
			}
		}
		from := i
		for {
			for i < len(line) && byteClass[line[i]] == fieldByte {
				i++
			}
			if i == len(line) || byteClass[line[i]] == spaceByte {
				break
			}
			size, space := wideRune(line[i:])
			if space {
				break
			}
			i += size
		}
		if n < maxFields {
			lf.from[n], lf.to[n] = from, i
		}
		if n == 0 {
			start = from
		}
		n++
		end = i
	}
	lf.n, lf.start, lf.end = n, start, end
}

// wideRune decodes the rune at the start of b and reports its width and
// whether it is white space.
func wideRune(b []byte) (size int, space bool) {
	r, size := utf8.DecodeRune(b)
	return size, unicode.IsSpace(r)
}
