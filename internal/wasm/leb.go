package wasm

import "fmt"

// AppendUleb appends x as an unsigned LEB128 sequence.
func AppendUleb(b []byte, x uint64) []byte {
	for {
		c := byte(x & 0x7F)
		x >>= 7
		if x != 0 {
			c |= 0x80
		}
		b = append(b, c)
		if x == 0 {
			return b
		}
	}
}

// AppendSleb appends x as a signed LEB128 sequence.
func AppendSleb(b []byte, x int64) []byte {
	for {
		c := byte(x & 0x7F)
		x >>= 7
		if (x == 0 && c&0x40 == 0) || (x == -1 && c&0x40 != 0) {
			return append(b, c)
		}
		b = append(b, c|0x80)
	}
}

// reader is a cursor over an encoded module with LEB decoding.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) len() int   { return len(r.data) - r.pos }
func (r *reader) done() bool { return r.pos >= len(r.data) }

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("wasm: unexpected end of section")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("wasm: unexpected end of section")
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// zero reads a table or memory index, which must be 0.
func (r *reader) zero(what string) error {
	b, err := r.byte()
	if err == nil && b != 0 {
		err = fmt.Errorf("%s index must be 0", what)
	}
	return err
}

// uleb decodes an unsigned LEB128 value (at most 64 bits).
func (r *reader) uleb() (uint64, error) {
	var x uint64
	var shift uint
	for {
		c, err := r.byte()
		if err != nil {
			return 0, err
		}
		if shift >= 64 || (shift == 63 && c > 1) {
			return 0, fmt.Errorf("wasm: uleb128 overflows 64 bits")
		}
		x |= uint64(c&0x7F) << shift
		if c&0x80 == 0 {
			return x, nil
		}
		shift += 7
	}
}

// sleb decodes a signed LEB128 value (at most 64 bits).
func (r *reader) sleb() (int64, error) {
	var x int64
	var shift uint
	for {
		c, err := r.byte()
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, fmt.Errorf("wasm: sleb128 overflows 64 bits")
		}
		x |= int64(c&0x7F) << shift
		shift += 7
		if c&0x80 == 0 {
			if shift < 64 && c&0x40 != 0 {
				x |= -1 << shift
			}
			return x, nil
		}
	}
}

func (r *reader) u32() (uint32, error) {
	x, err := r.uleb()
	if err != nil {
		return 0, err
	}
	if x > 0xFFFFFFFF {
		return 0, fmt.Errorf("wasm: u32 out of range")
	}
	return uint32(x), nil
}
