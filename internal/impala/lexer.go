package impala

import (
	"strings"
	"unicode"
)

// lexer turns source text into tokens.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// twoCharOps are the multi-character operators, longest-match first.
var twoCharOps = []string{
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "..",
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '/':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off+1 <= len(l.src) {
				if l.off+1 < len(l.src) && l.peekByte() == '*' && l.src[l.off+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				if l.off >= len(l.src) {
					break
				}
				l.advance()
			}
			if !closed {
				return errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// next returns the next token.
func (l *lexer) next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peekByte()

	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.off]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Pos: pos}, nil

	case c >= '0' && c <= '9':
		start := l.off
		isFloat := false
		for l.off < len(l.src) {
			c := l.peekByte()
			if c >= '0' && c <= '9' || c == '_' {
				l.advance()
				continue
			}
			// A '.' starts a fraction only if not "..".
			if c == '.' && !isFloat && l.off+1 < len(l.src) && l.src[l.off+1] != '.' {
				isFloat = true
				l.advance()
				continue
			}
			if (c == 'e' || c == 'E') && isFloat {
				l.advance()
				if l.peekByte() == '+' || l.peekByte() == '-' {
					l.advance()
				}
				continue
			}
			break
		}
		text := strings.ReplaceAll(l.src[start:l.off], "_", "")
		kind := TokInt
		if isFloat {
			kind = TokFloat
		}
		return Token{Kind: kind, Text: text, Pos: pos}, nil

	case c == '\'':
		// Character literal -> integer token with its code point.
		l.advance()
		if l.off >= len(l.src) {
			return Token{}, errf(pos, "unterminated character literal")
		}
		ch := l.advance()
		if ch == '\\' {
			esc := l.advance()
			switch esc {
			case 'n':
				ch = '\n'
			case 't':
				ch = '\t'
			case '\\':
				ch = '\\'
			case '\'':
				ch = '\''
			default:
				return Token{}, errf(pos, "bad escape '\\%c'", esc)
			}
		}
		if l.off >= len(l.src) || l.advance() != '\'' {
			return Token{}, errf(pos, "unterminated character literal")
		}
		return Token{Kind: TokInt, Text: itoa(int64(ch)), Pos: pos}, nil
	}

	// Operators / punctuation.
	if l.off+1 < len(l.src) {
		two := l.src[l.off : l.off+2]
		for _, op := range twoCharOps {
			if two == op {
				l.advance()
				l.advance()
				return Token{Kind: TokPunct, Text: op, Pos: pos}, nil
			}
		}
	}
	if strings.ContainsRune("+-*/%<>=!&|^(){}[],;:.@", rune(c)) {
		l.advance()
		return Token{Kind: TokPunct, Text: string(c), Pos: pos}, nil
	}
	if unicode.IsPrint(rune(c)) {
		return Token{}, errf(pos, "unexpected character %q", string(c))
	}
	return Token{}, errf(pos, "unexpected byte 0x%02x", c)
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// bytesPerToken sizes Lex's token slice: the benchmark suite's sources
// run 2.1 to 2.8 bytes per token, so len(src)/2 tokens fit every one of
// them in a single allocation.
const bytesPerToken = 2

// Lex tokenizes the whole input (used by tests and the parser).
func Lex(src string) ([]Token, error) {
	l := newLexer(src)
	toks := make([]Token, 0, len(src)/bytesPerToken+1)
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
