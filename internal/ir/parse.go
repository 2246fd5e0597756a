package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseWorld parses the textual dump format produced by Print back into a
// World, enabling IR round-trips, hand-written IR test fixtures and external
// tooling. Continuation names must be unique (Print guarantees this by
// suffixing duplicates with #gid).
//
// Intrinsic names (branch, print_i64, print_f64, print_char) resolve to the
// corresponding compiler-known continuations.
//
// The parsed world is verified: textual IR comes from outside the program
// (hand-written .thorin files, on-disk module artifacts), so a world that
// parses but breaks an invariant is rejected here rather than blamed on
// whichever pass first trips over it.
func ParseWorld(src string) (*World, error) {
	p := &worldParser{
		w:     NewWorld(),
		defs:  map[string]Def{},
		conts: map[string]*Continuation{},
	}
	if err := p.runGuarded(src); err != nil {
		return nil, err
	}
	if err := Verify(p.w); err != nil {
		return nil, fmt.Errorf("ir: parse: invalid IR: %w", err)
	}
	return p.w, nil
}

// runGuarded runs the parser under recover: the node constructors enforce
// their invariants (operand arity, type agreement) with panics, which is
// right for compiler-internal callers but not for user-supplied textual IR —
// a malformed .thorin file must come back as an error, not a crash.
func (p *worldParser) runGuarded(src string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("ir: parse line %d: invalid IR: %v", p.line, r)
		}
	}()
	return p.run(src)
}

type worldParser struct {
	w     *World
	defs  map[string]Def
	conts map[string]*Continuation
	line  int
}

func (p *worldParser) errf(format string, args ...any) error {
	return fmt.Errorf("ir: parse line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// paramName inverts the printer's name for parameter i of the
// continuation printed as cont: `<cont>.p<i>` is an unnamed parameter, and
// `<name>_<gid>` is one named name.
func paramName(cont string, i int, printed string) string {
	if printed == fmt.Sprintf("%s.p%d", cont, i) {
		return ""
	}
	if j := strings.LastIndexByte(printed, '_'); j >= 0 {
		if _, err := strconv.ParseUint(printed[j+1:], 10, 64); err == nil {
			return printed[:j]
		}
	}
	return printed
}

// header describes one continuation declaration from pass 1.
type contHeader struct {
	name   string
	extern bool
	params []string // display names
	types  []Type
	body   []string // binding/jump lines (nil for <unset>)
	line   int
}

func (p *worldParser) run(src string) error {
	headers, err := p.scanHeaders(src)
	if err != nil {
		return err
	}
	// Pass 1: create all continuations and their params.
	for _, h := range headers {
		if _, dup := p.conts[h.name]; dup {
			p.line = h.line
			return p.errf("continuation %q redefined", h.name)
		}
		c := p.w.Continuation(p.w.FnType(h.types...), strings.SplitN(h.name, "#", 2)[0])
		c.SetExtern(h.extern)
		p.conts[h.name] = c
		p.defs[h.name] = c
		for i, pn := range h.params {
			c.Param(i).SetName(paramName(h.name, i, pn))
			if _, dup := p.defs[pn]; dup {
				p.line = h.line
				return p.errf("parameter %q redefined", pn)
			}
			p.defs[pn] = c.Param(i)
		}
	}
	// Pass 2: bodies.
	for _, h := range headers {
		if h.body == nil {
			continue
		}
		if err := p.parseBody(p.conts[h.name], h); err != nil {
			return err
		}
	}
	return nil
}

// scanHeaders splits the dump into continuation sections.
func (p *worldParser) scanHeaders(src string) ([]*contHeader, error) {
	var headers []*contHeader
	var cur *contHeader
	for i, raw := range strings.Split(src, "\n") {
		p.line = i + 1
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if cur != nil {
			if line == "}" {
				cur = nil
				continue
			}
			cur.body = append(cur.body, line)
			continue
		}
		h, open, err := p.parseHeader(line)
		if err != nil {
			return nil, err
		}
		headers = append(headers, h)
		if open {
			cur = h
			cur.body = []string{}
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("ir: parse: unterminated body of %q", cur.name)
	}
	return headers, nil
}

// parseHeader parses `[extern] name(p: T, ...) = {` or `... = <unset>`.
func (p *worldParser) parseHeader(line string) (*contHeader, bool, error) {
	h := &contHeader{line: p.line}
	rest := line
	if strings.HasPrefix(rest, "extern ") {
		h.extern = true
		rest = strings.TrimPrefix(rest, "extern ")
	}
	open := strings.Index(rest, "(")
	if open < 0 {
		return nil, false, p.errf("expected '(' in continuation header")
	}
	h.name = strings.TrimSpace(rest[:open])
	if h.name == "" {
		return nil, false, p.errf("empty continuation name")
	}
	closeIdx := matchParen(rest, open)
	if closeIdx < 0 {
		return nil, false, p.errf("unbalanced '(' in header")
	}
	paramsSrc := rest[open+1 : closeIdx]
	for _, ps := range splitTop(paramsSrc) {
		colon := strings.Index(ps, ":")
		if colon < 0 {
			return nil, false, p.errf("parameter %q missing type", ps)
		}
		name := strings.TrimSpace(ps[:colon])
		ty, err := p.parseType(strings.TrimSpace(ps[colon+1:]))
		if err != nil {
			return nil, false, err
		}
		h.params = append(h.params, name)
		h.types = append(h.types, ty)
	}
	tail := strings.TrimSpace(rest[closeIdx+1:])
	switch tail {
	case "= {":
		return h, true, nil
	case "= <unset>":
		return h, false, nil
	}
	return nil, false, p.errf("expected '= {' or '= <unset>', found %q", tail)
}

func (p *worldParser) parseBody(c *Continuation, h *contHeader) error {
	if len(h.body) == 0 {
		p.line = h.line
		return p.errf("empty body for %q", h.name)
	}
	for li, line := range h.body {
		p.line = h.line + 1 + li
		last := li == len(h.body)-1
		if !last {
			if err := p.parseBinding(line); err != nil {
				return err
			}
			continue
		}
		// Terminator: callee(args...).
		open := strings.Index(line, "(")
		if open < 0 || !strings.HasSuffix(line, ")") {
			return p.errf("bad terminator %q", line)
		}
		callee, err := p.resolve(strings.TrimSpace(line[:open]))
		if err != nil {
			return err
		}
		args, err := p.resolveArgs(line[open+1 : len(line)-1])
		if err != nil {
			return err
		}
		c.Jump(callee, args...)
	}
	return nil
}

// parseBinding parses `name = TYPE kind(args...)`.
func (p *worldParser) parseBinding(line string) error {
	eq := strings.Index(line, " = ")
	if eq < 0 {
		return p.errf("expected binding, found %q", line)
	}
	name := strings.TrimSpace(line[:eq])
	if _, exists := p.defs[name]; exists {
		// The printer repeats shared primops in every body that uses them;
		// the first occurrence wins (vital for slots/allocs/globals, whose
		// identity must not be duplicated).
		return nil
	}
	rest := strings.TrimSpace(line[eq+3:])

	// `TYPE kind(args)`: the type is parsed greedily from the left (it may
	// itself contain parentheses), leaving `kind(args)`.
	ty, after, err := p.parseTypePrefix(rest)
	if err != nil {
		return err
	}
	after = strings.TrimSpace(after)
	open := strings.Index(after, "(")
	if open < 0 || !strings.HasSuffix(after, ")") {
		return p.errf("bad binding %q", line)
	}
	kindName := strings.TrimSpace(after[:open])
	args, err := p.resolveArgs(after[open+1 : len(after)-1])
	if err != nil {
		return err
	}
	k, ok := kindByName[kindName]
	if !ok {
		return p.errf("unknown primop kind %q", kindName)
	}
	d, err := p.w.Rebuild(k, ty, args)
	if err != nil {
		return p.errf("%s", strings.TrimPrefix(err.Error(), "ir: "))
	}
	if base := strings.SplitN(name, "_", 2)[0]; base != "" && !strings.HasPrefix(name, "_") {
		d.SetName(base)
	}
	p.defs[name] = d
	return nil
}

var kindByName = func() map[string]OpKind {
	m := map[string]OpKind{}
	for k, n := range opNames {
		m[n] = k
	}
	return m
}()

// resolveArgs parses a comma-separated argument list.
func (p *worldParser) resolveArgs(src string) ([]Def, error) {
	parts := splitTop(src)
	out := make([]Def, len(parts))
	for i, part := range parts {
		d, err := p.resolve(part)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// resolve turns one argument token into a def: a literal or a name.
func (p *worldParser) resolve(tok string) (Def, error) {
	tok = strings.TrimSpace(tok)
	switch {
	case tok == "true":
		return p.w.LitBool(true), nil
	case tok == "false":
		return p.w.LitBool(false), nil
	case strings.HasPrefix(tok, "⊥:"):
		ty, err := p.parseType(tok[len("⊥:"):])
		if err != nil {
			return nil, err
		}
		return p.w.Bottom(ty), nil
	}
	if len(tok) > 0 && (tok[0] == '-' || tok[0] >= '0' && tok[0] <= '9') {
		colon := strings.LastIndex(tok, ":")
		if colon < 0 {
			return nil, p.errf("literal %q missing type suffix", tok)
		}
		ty, err := p.parseType(tok[colon+1:])
		if err != nil {
			return nil, err
		}
		pt, ok := ty.(*PrimType)
		if !ok {
			return nil, p.errf("literal %q with non-primitive type", tok)
		}
		if pt.Tag.IsFloat() {
			f, err := strconv.ParseFloat(tok[:colon], 64)
			if err != nil {
				return nil, p.errf("bad float literal %q", tok)
			}
			return p.w.LitFloat(pt.Tag, f), nil
		}
		v, err := strconv.ParseInt(tok[:colon], 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %q", tok)
		}
		return p.w.LitInt(pt.Tag, v), nil
	}
	// Intrinsics.
	switch tok {
	case "branch":
		return p.w.Branch(), nil
	case "print_i64":
		return p.w.PrintI64(), nil
	case "print_f64":
		return p.w.PrintF64(), nil
	case "print_char":
		return p.w.PrintChar(), nil
	}
	if d, ok := p.defs[tok]; ok {
		return d, nil
	}
	return nil, p.errf("undefined name %q", tok)
}

// parseType parses the printer's type syntax.
func (p *worldParser) parseType(src string) (Type, error) {
	ty, rest, err := p.parseTypePrefix(strings.TrimSpace(src))
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(rest) != "" {
		return nil, p.errf("trailing %q after type", rest)
	}
	return ty, nil
}

// parseTypePrefix parses one type at the head of src, returning the rest.
func (p *worldParser) parseTypePrefix(src string) (Type, string, error) {
	src = strings.TrimLeft(src, " ")
	var ty Type
	var rest string
	switch {
	case strings.HasPrefix(src, "mem"):
		ty, rest = p.w.MemType(), src[3:]
	case strings.HasPrefix(src, "frame"):
		ty, rest = p.w.FrameType(), src[5:]
	case strings.HasPrefix(src, "fn("):
		elems, r, err := p.parseTypeList(src[2:])
		if err != nil {
			return nil, "", err
		}
		ty, rest = p.w.FnType(elems...), r
	case strings.HasPrefix(src, "("):
		elems, r, err := p.parseTypeList(src)
		if err != nil {
			return nil, "", err
		}
		ty, rest = p.w.TupleType(elems...), r
	case strings.HasPrefix(src, "["):
		end := matchBracket(src, 0)
		if end < 0 {
			return nil, "", p.errf("unbalanced '[' in type %q", src)
		}
		inner := strings.TrimSpace(src[1:end])
		if i := topLevelIndex(inner, " x "); i > 0 {
			n, err := strconv.ParseInt(strings.TrimSpace(inner[:i]), 10, 64)
			if err != nil {
				return nil, "", p.errf("bad array length in %q", src)
			}
			elem, err := p.parseType(inner[i+3:])
			if err != nil {
				return nil, "", err
			}
			ty = p.w.ArrayType(n, elem)
		} else {
			elem, err := p.parseType(inner)
			if err != nil {
				return nil, "", err
			}
			ty = p.w.IndefArrayType(elem)
		}
		rest = src[end+1:]
	default:
		for _, tag := range []PrimTypeTag{PrimBool, PrimI8, PrimI16, PrimI32, PrimI64, PrimF32, PrimF64} {
			name := tag.String()
			if strings.HasPrefix(src, name) {
				ty, rest = p.w.PrimType(tag), src[len(name):]
				break
			}
		}
		if ty == nil {
			return nil, "", p.errf("cannot parse type %q", src)
		}
	}
	for strings.HasPrefix(rest, "*") {
		ty = p.w.PtrType(ty)
		rest = rest[1:]
	}
	return ty, rest, nil
}

// parseTypeList parses "(T, U, ...)" starting at src[0] == '('.
func (p *worldParser) parseTypeList(src string) ([]Type, string, error) {
	end := matchParen(src, 0)
	if end < 0 {
		return nil, "", p.errf("unbalanced '(' in type %q", src)
	}
	var elems []Type
	for _, part := range splitTop(src[1:end]) {
		ty, err := p.parseType(part)
		if err != nil {
			return nil, "", err
		}
		elems = append(elems, ty)
	}
	return elems, src[end+1:], nil
}

// topLevelIndex returns the index of the first occurrence of sep at
// parenthesis/bracket depth zero, or -1.
func topLevelIndex(src, sep string) int {
	depth := 0
	for i := 0; i+len(sep) <= len(src); i++ {
		switch src[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		}
		if depth == 0 && strings.HasPrefix(src[i:], sep) {
			return i
		}
	}
	return -1
}

// splitTop splits src on commas at parenthesis/bracket depth zero.
func splitTop(src string) []string {
	src = strings.TrimSpace(src)
	if src == "" {
		return nil
	}
	var parts []string
	depth, start := 0, 0
	for i, r := range src {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, strings.TrimSpace(src[start:i]))
				start = i + 1
			}
		}
	}
	parts = append(parts, strings.TrimSpace(src[start:]))
	return parts
}

// matchParen returns the index of the ')' matching the '(' at src[open].
func matchParen(src string, open int) int {
	depth := 0
	for i := open; i < len(src); i++ {
		switch src[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// matchBracket returns the index of the ']' matching the '[' at src[open].
func matchBracket(src string, open int) int {
	depth := 0
	for i := open; i < len(src); i++ {
		switch src[i] {
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}
