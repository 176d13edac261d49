package sql

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"phoebedb/internal/rel"
)

// Prepared-statement plan cache. OLTP workloads repeat a handful of
// statement shapes with different literals; re-lexing, re-parsing, and
// re-planning each one dominates the SQL layer's per-statement cost. The
// cache keys on the literal-normalized statement text ('?' in place of
// each literal), stores the parsed template plus the planner's access-path
// choice, and on a hit binds the extracted literals into a copy of the
// template — skipping the lexer, the parser, and planWhere's index scoring.
//
// Invalidation: DDL (CREATE TABLE / CREATE INDEX) can change every plan,
// so the owner calls Invalidate, which drops all entries. Entries are
// immutable after insertion except the planHint, which is published via an
// atomic pointer — concurrent sessions share one cache without locking on
// the hit path beyond the LRU bump.

// CachedStmt is one cached template: the parsed statement with parameter
// markers in literal positions, plus the lazily captured plan choice.
type CachedStmt struct {
	tmpl    Stmt
	nParams int
	// key is the normalized statement text the template was cached under —
	// the fingerprint per-statement aggregates and the slow log key on.
	key string
	// plan holds the access-path provenance captured on first execution;
	// nil until then. Races on Store are benign (idempotent recompute).
	plan atomic.Pointer[planHint]
	// sel holds the shaped-select strategy (join side and probe index);
	// literal-independent, so it survives rebinding. nil until a join
	// statement first executes.
	sel atomic.Pointer[selectHint]
	// meta and proj cache what a single-table statement re-derived from the
	// catalog on every execution although it depends only on the template
	// and the schema: the table's schema and live indexes, and a streaming
	// SELECT's projection. Like the plan hint they are published once and
	// die with the entry when DDL invalidates the cache.
	meta atomic.Pointer[planTable]
	proj atomic.Pointer[projection]
}

// projection is a streaming SELECT's output: source positions (nil for
// SELECT *, whose output row is the scan row) and column names.
type projection struct {
	pos  []int
	cols []string
}

// Fingerprint returns the normalized statement text the template was
// cached under.
func (cs *CachedStmt) Fingerprint() string { return cs.key }

// Fingerprint returns the normalized per-statement aggregation key for
// query — the same key the plan cache uses — falling back to the trimmed
// source text when the normalizer cannot handle the statement.
func Fingerprint(query string) string {
	var sc Scratch
	if key, _, ok := normalize(query, &sc); ok {
		return string(key)
	}
	return strings.TrimSpace(query)
}

// PlanCache is a bounded LRU of CachedStmt keyed by normalized statement
// text. Safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key string
	cs  *CachedStmt
}

// NewPlanCache returns a cache bounded to capacity entries (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Hits returns cache hits (statements served from a cached template).
func (c *PlanCache) Hits() int64 { return c.hits.Load() }

// Misses returns cache misses (cacheable statements that had to parse).
func (c *PlanCache) Misses() int64 { return c.misses.Load() }

// Len returns the number of cached templates.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Invalidate drops every entry. Called on DDL: a new table or index can
// change any statement's access path.
func (c *PlanCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.entries = make(map[string]*list.Element, c.cap)
}

// Prepare resolves src against the cache: normalize, look up, and on a
// miss parse the template and insert it. The returned params are the
// literals extracted from src in source order, ready for ExecPrepared; they
// live in sc and are valid until its next use. src itself is only read.
// cacheable=false means the statement bypasses the cache — DDL, statements
// the normalizer cannot handle, or text that fails to parse (the caller
// should fall back to Parse on the original text for a faithful error).
func (c *PlanCache) Prepare(src string, sc *Scratch) (cs *CachedStmt, params []rel.Value, cacheable bool) {
	keyBytes, params, ok := normalize(src, sc)
	if !ok {
		return nil, nil, false
	}
	c.mu.Lock()
	if el, hit := c.entries[string(keyBytes)]; hit {
		c.lru.MoveToFront(el)
		cs := el.Value.(*cacheEntry).cs
		c.mu.Unlock()
		c.hits.Add(1)
		return cs, params, true
	}
	c.mu.Unlock()

	key := string(keyBytes)
	tmpl, n, err := parseTemplate(key)
	if err != nil || n != len(params) {
		// Unparseable (or a normalizer/parser disagreement): let the
		// caller produce the error from the original text.
		return nil, nil, false
	}
	c.misses.Add(1)
	cs = &CachedStmt{tmpl: tmpl, nParams: n, key: key}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, hit := c.entries[key]; hit {
		// Another session inserted the same template while we parsed.
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).cs, params, true
	}
	el := c.lru.PushFront(&cacheEntry{key: key, cs: cs})
	c.entries[key] = el
	if c.lru.Len() > c.cap {
		old := c.lru.Back()
		c.lru.Remove(old)
		delete(c.entries, old.Value.(*cacheEntry).key)
	}
	return cs, params, true
}

// normalize rewrites src into a cache key with every literal replaced by
// '?', returning the extracted literals in source order; both are built in
// sc and valid until its next use. It mirrors the lexer's token boundaries
// in a single pass that allocates only the string literals' values:
// identifiers lowercase (the parser lowercases them anyway), symbols
// verbatim, string and number literals parameterized. Two exceptions keep
// templates sound: LIMIT counts stay verbatim in the key (the planner
// treats LIMIT as part of the plan, and `LIMIT ?` would hide it), and
// CREATE statements are uncacheable (DDL runs once; caching it would mask
// Invalidate ordering).
func normalize(src string, sc *Scratch) (key []byte, params []rel.Value, ok bool) {
	sc.key, sc.params = sc.key[:0], sc.params[:0]
	afterLimit := false
	first := true
	pos := 0
	for pos < len(src) {
		c := src[pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			pos++
			continue
		case isIdentStart(rune(c)):
			wstart := len(sc.key)
			for pos < len(src) && isIdentPart(rune(src[pos])) {
				b := src[pos]
				if b >= 'A' && b <= 'Z' {
					b += 'a' - 'A'
				}
				sc.key = append(sc.key, b)
				pos++
			}
			word := sc.key[wstart:]
			// CREATE: DDL runs once, caching would mask Invalidate ordering.
			// EXPLAIN: a diagnostic whose literals must survive verbatim into
			// the rendered plan — parameterizing them would lie.
			if first && (string(word) == "create" || string(word) == "explain") {
				return nil, nil, false
			}
			afterLimit = string(word) == "limit"
			sc.key = append(sc.key, ' ')
		case c >= '0' && c <= '9' || c == '-' && pos+1 < len(src) && src[pos+1] >= '0' && src[pos+1] <= '9':
			start := pos
			pos++
			for pos < len(src) && (src[pos] >= '0' && src[pos] <= '9' || src[pos] == '.') {
				pos++
			}
			text := src[start:pos]
			if afterLimit {
				// Keep the count in the key: different limits are
				// different plans.
				sc.key = append(sc.key, text...)
				sc.key = append(sc.key, ' ')
			} else {
				v, err := numberValue(text)
				if err != nil {
					return nil, nil, false
				}
				sc.params = append(sc.params, v)
				sc.key = append(sc.key, '?', ' ')
			}
			afterLimit = false
		case c == '\'':
			pos++
			// The literal's text is copied out of src (a value may outlive
			// the statement text: an inserted string lands in a page). A
			// literal without quote escapes is one contiguous run.
			start, escaped := pos, false
			var lit strings.Builder
			for {
				if pos >= len(src) {
					return nil, nil, false // unterminated; Parse reports it
				}
				if src[pos] == '\'' {
					if pos+1 < len(src) && src[pos+1] == '\'' {
						if !escaped {
							escaped = true
							lit.WriteString(src[start:pos])
						}
						lit.WriteByte('\'')
						pos += 2
						continue
					}
					break
				}
				if escaped {
					lit.WriteByte(src[pos])
				}
				pos++
			}
			if escaped {
				sc.params = append(sc.params, rel.Str(lit.String()))
			} else {
				sc.params = append(sc.params, rel.Str(strings.Clone(src[start:pos])))
			}
			pos++ // closing quote
			sc.key = append(sc.key, '?', ' ')
			afterLimit = false
		case c == '<' || c == '>' || c == '!':
			// Mirror the lexer: <=, >=, != are single tokens. A bare '!' is
			// a lex error — uncacheable, let Parse report it.
			sc.key = append(sc.key, c)
			pos++
			if pos < len(src) && src[pos] == '=' {
				sc.key = append(sc.key, '=')
				pos++
			} else if c == '!' {
				return nil, nil, false
			}
			sc.key = append(sc.key, ' ')
			afterLimit = false
		case c == '(' || c == ')' || c == ',' || c == '=' || c == '*' || c == '.':
			sc.key = append(sc.key, c, ' ')
			pos++
			afterLimit = false
		default:
			// '?' in user text, or anything the lexer would reject:
			// uncacheable, let Parse produce the error.
			return nil, nil, false
		}
		first = false
	}
	return sc.key, sc.params, true
}

// numberValue mirrors parser.value's literal typing: a '.' makes a float,
// otherwise the text must be a valid int64.
func numberValue(text string) (rel.Value, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return rel.Value{}, err
		}
		return rel.Float(f), nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return rel.Value{}, err
	}
	return rel.Int(n), nil
}
