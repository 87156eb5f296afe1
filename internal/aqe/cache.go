package aqe

import (
	"container/list"
	"strconv"
	"sync"
)

// DefaultPlanCacheSize is every engine's prepared-plan cache capacity: room
// for every shape a busy service sees (a per-metric latest, union and window
// query over 64 metrics is 192 shapes) with an order of magnitude to spare; a
// cached plan is a few hundred bytes.
const DefaultPlanCacheSize = 1024

// planCache is an LRU of prepared plans keyed on query shape — the text with
// every integer literal replaced by '?' (see shapeOf). Middleware services
// issue the same handful of query shapes at high rate (§3.3), differing only
// in the timestamps they carry, so a small cache removes lexing, parsing, and
// compilation from the hot path.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key  string
	plan *Plan
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, entries: make(map[string]*list.Element), order: list.New()}
}

// get returns the cached plan for key, promoting it to most recently used. A
// plan that binds a different number of literals than the caller lifted is
// not the caller's: the only text that can name a shape without producing it
// is one with a '?' of its own, which the parser is about to reject.
func (c *planCache) get(key []byte, nargs int) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(key)]
	if !ok || el.Value.(*cacheEntry).plan.nargs != nargs {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).plan
}

// put inserts a plan, evicting the least recently used entry at capacity,
// and returns the occupancy.
func (c *planCache) put(key []byte, p *Plan) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(key)]; ok {
		el.Value.(*cacheEntry).plan = p
		c.order.MoveToFront(el)
		return c.order.Len()
	}
	for c.order.Len() >= c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
	}
	k := string(key)
	c.entries[k] = c.order.PushFront(&cacheEntry{key: k, plan: p})
	return c.order.Len()
}

func isDigit(c byte) bool  { return '0' <= c && c <= '9' }
func isLetter(c byte) bool { return 'a' <= c|0x20 && c|0x20 <= 'z' }

// shapeOf lifts the integer literals out of src in one pass: it appends to
// key the text with each literal replaced by '?' and to args the literals in
// order, splitting tokens exactly as lex does (an identifier swallows digits,
// '.' and '-'; a number is a digit run, optionally led by '-'), so two texts
// of one shape parse to the same tree up to those values. Text it cannot
// vouch for — a non-ASCII byte (lex reads those by Unicode class), a literal
// that is not an int64, a '?' of its own — is its own key, with no args.
func shapeOf(key []byte, args []int64, src string) ([]byte, []int64) {
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c >= 0x80 || c == '?':
			return append(key[:0], src...), args[:0]
		case isDigit(c) || (c == '-' && i+1 < len(src) && isDigit(src[i+1])):
			start := i
			for i++; i < len(src) && (isDigit(src[i]) || src[i] == '.'); i++ {
			}
			v, err := strconv.ParseInt(src[start:i], 10, 64)
			if err != nil {
				return append(key[:0], src...), args[:0]
			}
			key, args = append(key, '?'), append(args, v)
		case isLetter(c) || c == '_':
			start := i
			for i++; i < len(src) && (isLetter(src[i]) || isDigit(src[i]) || src[i] == '_' || src[i] == '.' || src[i] == '-'); i++ {
			}
			key = append(key, src[start:i]...)
		default:
			key = append(key, c)
			i++
		}
	}
	return key, args
}
