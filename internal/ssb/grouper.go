package ssb

import "repro/internal/arena"

// Grouper accumulates per-group aggregate sums for one query execution
// without per-row allocations. Sums live behind pointers so the hot path is
// a non-allocating map lookup with a reusable key buffer (a key string is
// built only the first time its group appears), and the sums themselves come
// from a slab arena, not one allocation per group.
//
// A Grouper is not safe for concurrent use; the fact pass gives each worker
// its own and merges the emitted results.
type Grouper struct {
	groups map[string]*int64
	sums   *arena.Arena[int64]
	kbuf   []byte
}

// NewGrouper returns an empty accumulator.
func NewGrouper() *Grouper {
	return &Grouper{groups: map[string]*int64{}, sums: arena.New[int64](256)}
}

// Add folds v into the group the query assigns the row to, preferring the
// allocation-free GroupAppend path when the query provides one.
func (g *Grouper) Add(q *Query, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part, v int64) {
	g.kbuf = g.kbuf[:0]
	if q.GroupAppend != nil {
		g.kbuf = q.GroupAppend(g.kbuf, lo, d, c, s, p)
	} else if q.GroupBy != nil {
		g.kbuf = append(g.kbuf, q.GroupBy(lo, d, c, s, p)...)
	}
	if sum, ok := g.groups[string(g.kbuf)]; ok {
		*sum += v
		return
	}
	sum := g.sums.Alloc()
	*sum = v
	g.groups[string(g.kbuf)] = sum
}

// Emit adds the accumulated sums into out.
func (g *Grouper) Emit(out Result) {
	for k, v := range g.groups {
		out[k] += *v
	}
}
