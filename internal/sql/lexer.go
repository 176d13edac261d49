// Package sql implements PhoebeDB's SQL interface — the first item on the
// paper's future-work list ("develop SQL interface to establish PhoebeDB
// as a standalone server"). It covers the embedded-OLTP subset the kernel
// serves natively:
//
//	CREATE TABLE t (a INT, b STRING, c FLOAT)
//	CREATE [UNIQUE] INDEX i ON t (a, b)        -- online backfill on non-empty tables
//	INSERT INTO t VALUES (1, 'x', 2.5), (2, 'y', 3.5)
//	SELECT a, b FROM t WHERE a = 1 AND b = 'x' [LIMIT n]
//	SELECT * FROM t WHERE a > 1 AND c <= 9.5 AND b != 'x'
//	SELECT * FROM t WHERE a BETWEEN 3 AND 7    -- sugar for a >= 3 AND a <= 7
//	SELECT * FROM t [WHERE ...] [ORDER BY c [ASC|DESC], ...] [LIMIT n]
//	SELECT t.a, u.g FROM t JOIN u ON t.a = u.x [WHERE ...]
//	SELECT a, count(*), sum(c), min(b), max(b), avg(c)
//	       FROM t [WHERE ...] [GROUP BY a, ...] [ORDER BY ...] [LIMIT n]
//	UPDATE t SET c = 9.5 WHERE a = 1
//	DELETE FROM t WHERE a = 1
//
// Column references may be qualified (t.a) anywhere a column is legal;
// aggregates are count/sum/min/max/avg, with count(*) counting rows.
// WHERE is a conjunction of comparisons (=, !=, <, <=, >, >=, BETWEEN)
// between a column and a literal; the dialect has no NULL, so comparison
// semantics are total.
//
// The planner matches equality conjunctions in WHERE against declared
// index prefixes (choosing the longest usable prefix, unique indexes
// first); a range conjunct (<, <=, >, >=, BETWEEN) on the next index
// column after the equality prefix extends the access path to a B-Tree
// range scan with lo/hi bounds. Range conditions on one column intersect
// (a provably empty intersection short-circuits the scan); equality keeps
// the documented last-wins dedupe. Everything else falls back to a
// visibility-checked full scan whose residual filter splits by column
// width: conjuncts on fixed-width columns run vectorized over PAX column
// strips, conjuncts on var-width columns run on the rows that survive
// them. Joins are
// two-table inner equi-joins: index nested loop when a join column is a
// usable index prefix, hash join otherwise. ORDER BY skips its sort when
// the chosen index already delivers the order (a range column still
// delivers its own ascending order).
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // ( ) , = * . < > <= >= != ?
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer tokenizes a SQL string.
type lexer struct {
	src    string
	pos    int
	tokens []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos})
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(rune(c)):
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.tokens = append(l.tokens, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
		case c >= '0' && c <= '9' || c == '-' && l.peekDigit():
			l.pos++
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
				l.pos++
			}
			l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
		case c == '\'':
			l.pos++
			var sb strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, fmt.Errorf("sql: unterminated string literal at %d", start)
				}
				if l.src[l.pos] == '\'' {
					// '' escapes a quote.
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						sb.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				sb.WriteByte(l.src[l.pos])
				l.pos++
			}
			l.tokens = append(l.tokens, token{kind: tokString, text: sb.String(), pos: start})
		case c == '<' || c == '>' || c == '!':
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				l.pos++
			} else if c == '!' {
				return nil, fmt.Errorf("sql: unexpected character %q at %d (did you mean !=?)", c, start)
			}
			l.tokens = append(l.tokens, token{kind: tokSymbol, text: l.src[start:l.pos], pos: start})
		case strings.ContainsRune("(),=*.?", rune(c)):
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokSymbol, text: string(c), pos: start})
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at %d", c, l.pos)
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func (l *lexer) peekDigit() bool {
	return l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
