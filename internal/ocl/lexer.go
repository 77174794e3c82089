package ocl

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexer tokenizes an OCL expression source string.
type lexer struct {
	src string
	pos int
}

// keywords maps reserved words to token kinds. `pre` is treated as a keyword
// only when followed by '('; otherwise it can appear as an identifier
// segment (handled in next()).
var keywords = map[string]TokenKind{
	"and":     TokAnd,
	"or":      TokOr,
	"xor":     TokXor,
	"not":     TokNot,
	"implies": TokImplies,
	"true":    TokTrue,
	"false":   TokFalse,
}

// Lex tokenizes src into a token stream ending with TokEOF.
func Lex(src string) ([]Token, error) {
	lx := lexer{src: src}
	// The shipped models' texts lex to at most 0.4 tokens per byte, so
	// one allocation holds the stream (plus EOF); denser text grows it.
	toks := make([]Token, 0, len(src)/2+1)
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *lexer) errf(pos int, msg string) error {
	return &SyntaxError{Pos: pos, Message: msg, Src: lx.src}
}

func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		r, sz := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		lx.pos += sz
	}
}

// next scans the next token.
func (lx *lexer) next() (Token, error) {
	lx.skipSpace()
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch {
	case c == '(':
		lx.pos++
		return Token{Kind: TokLParen, Text: "(", Pos: start}, nil
	case c == ')':
		lx.pos++
		return Token{Kind: TokRParen, Text: ")", Pos: start}, nil
	case c == '.':
		lx.pos++
		return Token{Kind: TokDot, Text: ".", Pos: start}, nil
	case c == ',':
		lx.pos++
		return Token{Kind: TokComma, Text: ",", Pos: start}, nil
	case c == '@':
		lx.pos++
		return Token{Kind: TokAt, Text: "@", Pos: start}, nil
	case c == '|':
		lx.pos++
		return Token{Kind: TokBar, Text: "|", Pos: start}, nil
	case c == '+':
		lx.pos++
		return Token{Kind: TokPlus, Text: "+", Pos: start}, nil
	case c == '*':
		lx.pos++
		return Token{Kind: TokStar, Text: "*", Pos: start}, nil
	case c == '/':
		lx.pos++
		return Token{Kind: TokSlash, Text: "/", Pos: start}, nil
	case c == '-':
		if strings.HasPrefix(lx.src[lx.pos:], "->") {
			lx.pos += 2
			return Token{Kind: TokArrow, Text: "->", Pos: start}, nil
		}
		lx.pos++
		return Token{Kind: TokMinus, Text: "-", Pos: start}, nil
	case c == '=':
		// Accept `==>` and `=>` as implication spellings (the paper's
		// Listing 1 uses both) and bare `=` as equality.
		if strings.HasPrefix(lx.src[lx.pos:], "==>") {
			lx.pos += 3
			return Token{Kind: TokImplies, Text: "==>", Pos: start}, nil
		}
		if strings.HasPrefix(lx.src[lx.pos:], "=>") {
			lx.pos += 2
			return Token{Kind: TokImplies, Text: "=>", Pos: start}, nil
		}
		lx.pos++
		return Token{Kind: TokEq, Text: "=", Pos: start}, nil
	case c == '<':
		if strings.HasPrefix(lx.src[lx.pos:], "<>") {
			lx.pos += 2
			return Token{Kind: TokNe, Text: "<>", Pos: start}, nil
		}
		if strings.HasPrefix(lx.src[lx.pos:], "<=") {
			lx.pos += 2
			return Token{Kind: TokLe, Text: "<=", Pos: start}, nil
		}
		lx.pos++
		return Token{Kind: TokLt, Text: "<", Pos: start}, nil
	case c == '>':
		if strings.HasPrefix(lx.src[lx.pos:], ">=") {
			lx.pos += 2
			return Token{Kind: TokGe, Text: ">=", Pos: start}, nil
		}
		lx.pos++
		return Token{Kind: TokGt, Text: ">", Pos: start}, nil
	case c == '\'':
		lx.pos++
		var sb strings.Builder
		for {
			if lx.pos >= len(lx.src) {
				return Token{}, lx.errf(start, "unterminated string literal")
			}
			if lx.src[lx.pos] == '\'' {
				lx.pos++
				return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
			}
			r, sz := utf8.DecodeRuneInString(lx.src[lx.pos:])
			sb.WriteRune(r)
			lx.pos += sz
		}
	case c >= '0' && c <= '9':
		for lx.pos < len(lx.src) && lx.src[lx.pos] >= '0' && lx.src[lx.pos] <= '9' {
			lx.pos++
		}
		return Token{Kind: TokInt, Text: lx.src[start:lx.pos], Pos: start}, nil
	default:
		// Decode the full rune: widening the lead byte of a multi-byte
		// (or invalid) UTF-8 sequence would misclassify it — an invalid
		// byte like 0xc2 widens to a letter, enters the identifier scan,
		// consumes nothing and loops the token stream forever.
		r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if !isIdentStart(r) {
			return Token{}, lx.errf(start, "unexpected character "+string(r))
		}
		for lx.pos < len(lx.src) {
			r, sz := utf8.DecodeRuneInString(lx.src[lx.pos:])
			if !isIdentPart(r) {
				break
			}
			lx.pos += sz
		}
		word := lx.src[start:lx.pos]
		if kind, ok := keywords[word]; ok {
			return Token{Kind: kind, Text: word, Pos: start}, nil
		}
		if word == "pre" {
			// `pre(` is the old-value operator; a bare `pre` is an
			// identifier (e.g. a resource named pre).
			rest := lx.src[lx.pos:]
			if strings.HasPrefix(strings.TrimLeft(rest, " \t"), "(") {
				return Token{Kind: TokPre, Text: word, Pos: start}, nil
			}
		}
		return Token{Kind: TokIdent, Text: word, Pos: start}, nil
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
