package osbinding

import (
	"encoding/binary"
	"math/bits"
	"reflect"
	"strings"
	"time"

	"cloudmon/internal/ocl"
	"cloudmon/internal/osclient"
)

// Path-directed decoding. A state path keeps one field of its response
// (a listing's ids, a status, a quota, a role list), so the provider does
// not decode the rest: a single pass over the body validates it and
// copies out only the bound field. The pass accepts canonical bodies
// only — keys and bound strings plain ASCII without escapes, every key
// either an exact declared field or one no declared field folds to, no
// declared key twice, no null on the bound path, integers where the
// response type has an int, nothing after the document — and hands every
// other body to json.Unmarshal into the response type, exactly as the
// typed client decodes it. Both routes therefore read the same value out
// of any body, and a body json.Unmarshal rejects fails with the same
// error as before.
//
// Most of a body is keys and strings, so the pass spends least on them.
// encoding/json writes a struct's fields in declaration order, so each
// key is first compared with the one the last declared key predicts, and
// looked up among the fields only when it is not that key byte for byte.
// String bytes are checked eight at a time, and white space, which an
// encoder writes none of between tokens, costs one comparison when there
// is none.

// fieldKind is a declared field's JSON type, as its Go type dictates.
type fieldKind uint8

const (
	kindString fieldKind = iota
	kindInt
	kindTime // time.Time: its own UnmarshalJSON checks it
	kindObject
	kindArray
)

// field is one JSON field json.Unmarshal fills in the response type.
type field struct {
	name string
	// key is the name as an encoder writes it before the value, "name":,
	// and head and tail its first and last eight bytes as little-endian
	// words; a key of under eight bytes has head zero-padded, and mask
	// keeps its bytes of a word.
	key              string
	head, tail, mask uint64
	kind             fieldKind
	index            int // the Go struct field's index
	// bound marks the fields from the root to the bound value: those are
	// read, not just checked, and may not be null.
	bound bool
	// fields are an object's fields; elem is an array's element.
	fields []field
	elem   *field
}

// shape is one binding's response: the fields its type declares and the
// route from the document root to the bound field.
type shape struct {
	typ    reflect.Type
	fields []field
	// index is the bound field's Go field path; when many, the field at
	// index[arrayStep] is a slice and the rest of the path applies to
	// each of its elements.
	index     []int
	many      bool
	arrayStep int
	leaf      fieldKind
}

// newShape derives the shape of the response type typ (a struct) with
// the dotted JSON field path bind as its bound value.
func newShape(typ reflect.Type, bind string) shape {
	s := shape{typ: typ, fields: fieldsOf(typ)}
	fields := s.fields
	for step, name := range strings.Split(bind, ".") {
		var f *field
		for i := range fields {
			if fields[i].name == name {
				f = &fields[i]
			}
		}
		if f == nil {
			panic("osbinding: " + typ.String() + " has no field " + bind)
		}
		f.bound = true
		s.index = append(s.index, f.index)
		if f.kind == kindArray {
			if s.many {
				panic("osbinding: two arrays on the path " + bind)
			}
			s.many, s.arrayStep = true, step
			f = f.elem
			f.bound = true
		}
		fields, s.leaf = f.fields, f.kind
	}
	if s.leaf != kindString && (s.leaf != kindInt || s.many) {
		panic("osbinding: cannot bind " + bind + ": a string, a string list or an int")
	}
	return s
}

// fieldsOf lists the JSON fields json.Unmarshal fills in struct type t.
func fieldsOf(t reflect.Type) []field {
	var fields []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag := sf.Tag.Get("json")
		if !sf.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if sf.Anonymous || strings.Contains(opts, "string") {
			panic("osbinding: no decoder for field " + t.String() + "." + sf.Name)
		}
		if name == "" {
			name = sf.Name
		}
		for _, prev := range fields {
			if prev.name == name {
				// json.Unmarshal fills neither of two fields of one name; a
				// predicted key would read the second.
				panic("osbinding: " + t.String() + " declares the JSON field " + name + " twice")
			}
		}
		f := fieldOf(sf.Type)
		f.name, f.index = name, i
		f.setKey(`"` + name + `":`)
		fields = append(fields, f)
	}
	if len(fields) > 64 {
		panic("osbinding: " + t.String() + " declares over 64 fields")
	}
	return fields
}

// setKey sets f's key and the words key compares a body's bytes with.
func (f *field) setKey(key string) {
	var head [8]byte
	n := copy(head[:], key)
	f.key, f.head, f.mask = key, binary.LittleEndian.Uint64(head[:]), ^uint64(0)>>(64-8*n)
	if len(key) > 8 {
		f.tail = binary.LittleEndian.Uint64([]byte(key[len(key)-8:]))
	}
}

// fieldOf maps a Go field type onto the JSON it decodes from.
func fieldOf(t reflect.Type) field {
	switch {
	case t == reflect.TypeOf(time.Time{}):
		return field{kind: kindTime}
	case t.Kind() == reflect.String:
		return field{kind: kindString}
	case t.Kind() == reflect.Int:
		return field{kind: kindInt}
	case t.Kind() == reflect.Struct:
		return field{kind: kindObject, fields: fieldsOf(t)}
	case t.Kind() == reflect.Slice && t.Elem().Kind() != reflect.Slice:
		elem := fieldOf(t.Elem())
		return field{kind: kindArray, elem: &elem}
	}
	panic("osbinding: no decoder for field type " + t.String())
}

// decode reads the bound value out of a 2xx response body.
func (s *shape) decode(body []byte) (ocl.Value, error) {
	if v, ok := s.scan(body); ok {
		return v, nil
	}
	return s.fallback(body)
}

// fallback decodes body the way the typed client does and projects the
// bound value out of the result.
func (s *shape) fallback(body []byte) (ocl.Value, error) {
	out := reflect.New(s.typ)
	if err := osclient.Decode(body, out.Interface()); err != nil {
		return ocl.Value{}, err
	}
	v := out.Elem()
	if !s.many {
		for _, i := range s.index {
			v = v.Field(i)
		}
		if s.leaf == kindInt {
			return ocl.IntVal(int(v.Int())), nil
		}
		return ocl.StringVal(v.String()), nil
	}
	for _, i := range s.index[:s.arrayStep+1] {
		v = v.Field(i)
	}
	elems := make([]ocl.Value, v.Len())
	for j := range elems {
		e := v.Index(j)
		for _, i := range s.index[s.arrayStep+1:] {
			e = e.Field(i)
		}
		elems[j] = ocl.StringVal(e.String())
	}
	return ocl.Value{Kind: ocl.KindCollection, Elems: elems}, nil
}

// scan is the single pass: ok is false when body is not canonical.
func (s *shape) scan(body []byte) (v ocl.Value, ok bool) {
	var sc scanner
	sc.data = body
	sc.ws()
	if !sc.object(s.fields) {
		return ocl.Value{}, false
	}
	sc.ws()
	if sc.pos != len(body) {
		return ocl.Value{}, false
	}
	switch {
	case s.many:
		return sc.collection(), true
	case s.leaf == kindInt:
		return ocl.IntVal(sc.n), true
	case sc.nspans == 0:
		return ocl.StringVal(""), true
	}
	return ocl.StringVal(string(body[sc.first[0].lo:sc.first[0].hi])), true
}

// span is a bound string's bytes in the body.
type span struct{ lo, hi int }

// scanner is one pass's cursor over a body, collecting the bound value.
type scanner struct {
	data  []byte
	pos   int
	depth int
	n     int // the bound int
	// nspans bound strings, in document order: the first in first (so a
	// scan of a listing of up to len(first) ids allocates no spans), the
	// rest in more.
	nspans int
	first  [32]span
	more   []span
	// total is the bound strings' length together.
	total int
}

// add records a bound string.
func (sc *scanner) add(sp span) {
	if sc.nspans < len(sc.first) {
		sc.first[sc.nspans] = sp
	} else {
		sc.more = append(sc.more, sp)
	}
	sc.nspans++
	sc.total += sp.hi - sp.lo
}

// span returns the i-th bound string's span.
func (sc *scanner) span(i int) span {
	if i < len(sc.first) {
		return sc.first[i]
	}
	return sc.more[i-len(sc.first)]
}

// maxSkipDepth bounds the nesting of undeclared values the scanner
// skips; deeper ones go to json.Unmarshal, which has its own bound.
const maxSkipDepth = 64

// collection copies the bound strings out of the body into one string
// and returns them as an exact-length collection over it.
func (sc *scanner) collection() ocl.Value {
	var b strings.Builder
	b.Grow(sc.total)
	for i := 0; i < sc.nspans; i++ {
		sp := sc.span(i)
		b.Write(sc.data[sp.lo:sp.hi])
	}
	all := b.String()
	elems := make([]ocl.Value, sc.nspans)
	off := 0
	for i := range elems {
		sp := sc.span(i)
		end := off + sp.hi - sp.lo
		elems[i] = ocl.StringVal(all[off:end])
		off = end
	}
	return ocl.Value{Kind: ocl.KindCollection, Elems: elems}
}

// object scans an object of the declared fields. Each key is first taken
// as the field after the last declared one read (the first field at the
// start), written as an encoder writes it, and looked up only when the
// bytes differ.
func (sc *scanner) object(fields []field) bool {
	data := sc.data
	if sc.pos >= len(data) || data[sc.pos] != '{' {
		return false
	}
	pos := space(data, sc.pos+1)
	if pos < len(data) && data[pos] == '}' {
		sc.pos = pos + 1
		return true
	}
	var seen uint64
	next := 0
	for {
		sc.pos = space(data, pos)
		i := next
		if next >= len(fields) || !sc.key(&fields[next]) {
			lo, hi, ok := sc.plain()
			if !ok {
				return false
			}
			i = lookup(fields, data[lo:hi])
			sc.ws()
			if !sc.eat(':') {
				return false
			}
		}
		sc.ws()
		switch {
		case i >= 0:
			if seen&(1<<i) != 0 {
				return false
			}
			seen |= 1 << i
			if !sc.value(&fields[i]) {
				return false
			}
			next = i + 1
		case i == undeclared:
			if !sc.skip() {
				return false
			}
		default:
			return false
		}
		pos = space(data, sc.pos)
		if pos >= len(data) {
			return false
		}
		switch data[pos] {
		case ',':
			pos++
		case '}':
			sc.pos = pos + 1
			return true
		default:
			return false
		}
	}
}

// key moves past f's key if it comes next, byte for byte. A key of up to
// sixteen bytes is compared as one or two words. A declared name holds no
// byte a plain string stops at, so plain and lookup would have found the
// same field.
func (sc *scanner) key(f *field) bool {
	rest, n := sc.data[sc.pos:], len(f.key)
	switch {
	case len(rest) < 8 || n > 16:
		if len(rest) < n || string(rest[:n]) != f.key {
			return false
		}
	case binary.LittleEndian.Uint64(rest)&f.mask != f.head:
		return false
	case n > 8 && (len(rest) < n || binary.LittleEndian.Uint64(rest[n-8:]) != f.tail):
		return false
	}
	sc.pos += n
	return true
}

const (
	undeclared = -1
	folded     = -2
)

// lookup finds key among the fields: its index, undeclared, or folded
// for a key json.Unmarshal would match to a field only by case folding
// (for the ASCII keys the scanner takes, strings.EqualFold folds as
// json.Unmarshal does).
func lookup(fields []field, key []byte) int {
	for i := range fields {
		if string(key) == fields[i].name {
			return i
		}
	}
	for i := range fields {
		if strings.EqualFold(string(key), fields[i].name) {
			return folded
		}
	}
	return undeclared
}

// value scans a declared field's value.
func (sc *scanner) value(f *field) bool {
	if f.kind == kindString && sc.pos < len(sc.data) && sc.data[sc.pos] == '"' {
		// A string without escapes, the usual one, ends at the first byte
		// words stops at; any other is scanned below from its start.
		var high uint64
		if f.bound {
			high = highBits
		}
		lo := sc.pos + 1
		if hi := words(sc.data, lo, high); hi < len(sc.data) && sc.data[hi] == '"' {
			sc.pos = hi + 1
			if f.bound {
				sc.add(span{lo, hi})
			}
			return true
		}
	}
	if sc.pos < len(sc.data) && sc.data[sc.pos] == 'n' {
		// json.Unmarshal leaves a field it reads as null untouched, so off
		// the bound path null reads as absent; on it, the body goes to
		// json.Unmarshal.
		return !f.bound && sc.literal("null")
	}
	switch f.kind {
	case kindString:
		if !f.bound {
			return sc.str()
		}
		lo, hi, ok := sc.plain()
		if ok {
			sc.add(span{lo, hi})
		}
		return ok
	case kindInt:
		n, ok := sc.integer()
		if f.bound {
			sc.n = n
		}
		return ok
	case kindTime:
		lo := sc.pos
		var t time.Time
		return sc.skip() && t.UnmarshalJSON(sc.data[lo:sc.pos]) == nil
	case kindObject:
		return sc.object(f.fields)
	}
	return sc.array(f)
}

// array scans an array of f's elements; on the bound path each element
// yields one bound string.
func (sc *scanner) array(f *field) bool {
	if !sc.eat('[') {
		return false
	}
	sc.ws()
	if sc.eat(']') {
		return true
	}
	for {
		sc.ws()
		n := sc.nspans
		if !sc.value(f.elem) {
			return false
		}
		if f.bound && sc.nspans == n {
			// An element without the bound field reads as its zero value.
			sc.add(span{})
		}
		sc.ws()
		if !sc.eat(',') {
			return sc.eat(']')
		}
	}
}

// skip scans any JSON value, checking its syntax only.
func (sc *scanner) skip() bool {
	if sc.pos >= len(sc.data) {
		return false
	}
	var closer byte
	switch sc.data[sc.pos] {
	case '"':
		return sc.str()
	case 't':
		return sc.literal("true")
	case 'f':
		return sc.literal("false")
	case 'n':
		return sc.literal("null")
	case '{':
		closer = '}'
	case '[':
		closer = ']'
	default:
		return sc.number()
	}
	if sc.depth++; sc.depth > maxSkipDepth {
		return false
	}
	sc.pos++
	sc.ws()
	if sc.eat(closer) {
		sc.depth--
		return true
	}
	for {
		sc.ws()
		if closer == '}' {
			if !sc.str() {
				return false
			}
			sc.ws()
			if !sc.eat(':') {
				return false
			}
			sc.ws()
		}
		if !sc.skip() {
			return false
		}
		sc.ws()
		if !sc.eat(',') {
			sc.depth--
			return sc.eat(closer)
		}
	}
}

// plain scans a string of printable ASCII without escapes, returning its
// contents' bounds.
func (sc *scanner) plain() (lo, hi int, ok bool) {
	if !sc.eat('"') {
		return 0, 0, false
	}
	lo = sc.pos
	sc.pos = words(sc.data, sc.pos, highBits)
	for sc.pos < len(sc.data) {
		c := sc.data[sc.pos]
		if c == '"' {
			sc.pos++
			return lo, sc.pos - 1, true
		}
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return 0, 0, false
		}
		sc.pos++
	}
	return 0, 0, false
}

// str scans any valid JSON string.
func (sc *scanner) str() bool {
	if !sc.eat('"') {
		return false
	}
	for {
		sc.pos = words(sc.data, sc.pos, 0)
		if sc.pos >= len(sc.data) {
			return false
		}
		c := sc.data[sc.pos]
		sc.pos++
		switch {
		case c == '"':
			return true
		case c < 0x20:
			return false
		case c == '\\':
			if sc.pos >= len(sc.data) {
				return false
			}
			e := sc.data[sc.pos]
			sc.pos++
			switch e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(sc.data)-sc.pos < 4 {
					return false
				}
				for _, h := range sc.data[sc.pos : sc.pos+4] {
					if !isHex(h) {
						return false
					}
				}
				sc.pos += 4
			default:
				return false
			}
		}
	}
}

// Masks of a 64-bit word's eight bytes: the lowest bit and the highest.
const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
)

// words returns the index of the first byte from pos on that is '"',
// '\\', a control byte or, when high is highBits, non-ASCII, testing eight
// bytes at a time; it stops at the last eight bytes, which the caller's
// byte loop reads. A byte b is below n (n <= 0x80) exactly when
// (b-n) &^ b has its high bit set, and the borrow such a byte lends the
// next can only set bits above it, so the lowest set bit marks the first
// byte that stops the scan.
func words(data []byte, pos int, high uint64) int {
	for ; pos+8 <= len(data); pos += 8 {
		w := binary.LittleEndian.Uint64(data[pos:])
		q, s := w^(lowBits*'"'), w^(lowBits*'\\')
		if stop := ((w-lowBits*0x20)&^w | (q-lowBits)&^q | (s-lowBits)&^s | w&high) & highBits; stop != 0 {
			return pos + bits.TrailingZeros64(stop)/8
		}
	}
	return pos
}

// integer scans a JSON integer that fits an int; a fraction or exponent
// fails it, as json.Unmarshal fails it into an int.
func (sc *scanner) integer() (int, bool) {
	neg := sc.eat('-')
	lo := sc.pos
	var n int64
	for sc.pos < len(sc.data) && isDigit(sc.data[sc.pos]) {
		n = n*10 + int64(sc.data[sc.pos]-'0')
		sc.pos++
	}
	digits := sc.pos - lo
	if digits == 0 || digits > 18 || (digits > 1 && sc.data[lo] == '0') {
		return 0, false
	}
	if sc.pos < len(sc.data) {
		switch sc.data[sc.pos] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return 0, false
	}
	return int(n), true
}

// number scans any JSON number.
func (sc *scanner) number() bool {
	sc.eat('-')
	switch {
	case sc.eat('0'):
	case sc.digits() == 0:
		return false
	}
	if sc.eat('.') && sc.digits() == 0 {
		return false
	}
	if sc.eat('e') || sc.eat('E') {
		if !sc.eat('+') {
			sc.eat('-')
		}
		if sc.digits() == 0 {
			return false
		}
	}
	return true
}

// digits scans a run of decimal digits and returns its length.
func (sc *scanner) digits() int {
	lo := sc.pos
	for sc.pos < len(sc.data) && isDigit(sc.data[sc.pos]) {
		sc.pos++
	}
	return sc.pos - lo
}

func (sc *scanner) literal(lit string) bool {
	if len(sc.data)-sc.pos < len(lit) || string(sc.data[sc.pos:sc.pos+len(lit)]) != lit {
		return false
	}
	sc.pos += len(lit)
	return true
}

func (sc *scanner) eat(c byte) bool {
	if sc.pos < len(sc.data) && sc.data[sc.pos] == c {
		sc.pos++
		return true
	}
	return false
}

// ws moves past white space.
func (sc *scanner) ws() { sc.pos = space(sc.data, sc.pos) }

// space returns the index of the first byte from pos on that is not white
// space. A byte above ' ' is none, so the usual case, a token right after
// the last, ends it at the first comparison.
func space(data []byte, pos int) int {
	for pos < len(data) && data[pos] <= ' ' {
		switch data[pos] {
		case ' ', '\t', '\n', '\r':
			pos++
		default:
			return pos
		}
	}
	return pos
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}
