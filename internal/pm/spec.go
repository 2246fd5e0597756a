package pm

import (
	"fmt"
	"strings"
)

// The spec grammar (whitespace is insignificant):
//
//	spec := seq
//	seq  := item { "," item }
//	item := NAME | "fix" "(" seq ")"
//	NAME := [A-Za-z0-9_-]+
//
// Names resolve against the global registry at parse time, so a typo or an
// unregistered pass fails before anything runs. fix groups nest.

// item is one element of a parsed pipeline: a single pass or a fix group.
type item interface {
	spec() string
}

type passItem struct{ pass Pass }

func (p passItem) spec() string { return p.pass.Name() }

type fixItem struct{ items []item }

func (f fixItem) spec() string {
	parts := make([]string, len(f.items))
	for i, it := range f.items {
		parts[i] = it.spec()
	}
	return "fix(" + strings.Join(parts, ",") + ")"
}

type parser struct {
	toks []string
	pos  int
}

// tokenize splits spec into NAME, "," , "(" and ")" tokens.
func tokenize(spec string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(spec) {
		c := spec[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == ',' || c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case isNameByte(c):
			j := i
			for j < len(spec) && isNameByte(spec[j]) {
				j++
			}
			toks = append(toks, spec[i:j])
			i = j
		default:
			return nil, fmt.Errorf("pm: bad character %q in pipeline spec", c)
		}
	}
	return toks, nil
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '-' || c == '_'
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

// parseSeq parses item{,item} until end of input or an unconsumed ")".
func (p *parser) parseSeq() ([]item, error) {
	var items []item
	for {
		it, err := p.parseItem()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if p.peek() != "," {
			return items, nil
		}
		p.next() // consume ","
	}
}

func (p *parser) parseItem() (item, error) {
	tok := p.next()
	switch tok {
	case "":
		return nil, fmt.Errorf("pm: pipeline spec ends where a pass name is expected")
	case ",", ")", "(":
		return nil, fmt.Errorf("pm: unexpected %q in pipeline spec (expected a pass name)", tok)
	}
	if tok == "fix" {
		if p.peek() != "(" {
			return nil, fmt.Errorf(`pm: "fix" must be followed by "(": fix(pass,...)`)
		}
		p.next() // consume "("
		items, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		if p.peek() != ")" {
			return nil, fmt.Errorf(`pm: unbalanced "fix(" — missing ")"`)
		}
		p.next() // consume ")"
		return fixItem{items: items}, nil
	}
	pass, ok := Lookup(tok)
	if !ok {
		return nil, fmt.Errorf("pm: unknown pass %q (registered: %s)",
			tok, strings.Join(Names(), ", "))
	}
	return passItem{pass: pass}, nil
}

// Parse compiles a pipeline spec string against the global registry.
func Parse(spec string) (*Pipeline, error) {
	toks, err := tokenize(spec)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("pm: empty pipeline spec")
	}
	p := &parser{toks: toks}
	items, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	if rest := p.peek(); rest != "" {
		return nil, fmt.Errorf("pm: unexpected %q after end of pipeline spec", rest)
	}
	return &Pipeline{Spec: spec, items: items, MaxFixIters: DefaultMaxFixIters}, nil
}

// StripPass returns spec with every occurrence of the named pass removed
// (fix groups that become empty disappear with their contents). The boolean
// reports whether anything was removed. This is how the driver's graceful
// degradation policy retries a pipeline without its faulting pass.
func StripPass(spec, name string) (string, bool, error) {
	pl, err := Parse(spec)
	if err != nil {
		return "", false, err
	}
	stripped, removed := stripItems(pl.items, name)
	parts := make([]string, len(stripped))
	for i, it := range stripped {
		parts[i] = it.spec()
	}
	return strings.Join(parts, ","), removed, nil
}

func stripItems(items []item, name string) ([]item, bool) {
	var out []item
	removed := false
	for _, it := range items {
		switch it := it.(type) {
		case passItem:
			if it.pass.Name() == name {
				removed = true
				continue
			}
			out = append(out, it)
		case fixItem:
			sub, rm := stripItems(it.items, name)
			removed = removed || rm
			if len(sub) > 0 {
				out = append(out, fixItem{items: sub})
			}
		}
	}
	return out, removed
}
