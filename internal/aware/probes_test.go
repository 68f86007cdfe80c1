package aware

import (
	"sort"
	"testing"

	"repro/internal/ssb"
)

// probeReplay is the engine's former per-row probe loop, kept as an oracle:
// on freshly built indexes it scans every fact row, applies the fact-local
// and date predicates, and probes the indexes live in ascending selectivity
// until the first miss. It returns the probe-phase bucket reads per index
// (by name), the qualifying rows, and the aggregated answer.
func probeReplay(e *Engine, q ssb.Query) (map[string]int64, []string, int64, ssb.Result) {
	d := e.data
	indexes := e.buildIndexes(q)
	sort.Slice(indexes, func(i, j int) bool { return indexes[i].selectivity < indexes[j].selectivity })
	order := make([]string, len(indexes))
	for i, ix := range indexes {
		ix.ix.ResetStats()
		order[i] = ix.name
	}
	var qualifying int64
	res := ssb.Result{}
	for i := range d.Rows() {
		lo := d.Row(i)
		row := &lo
		if q.LOFilter != nil && !q.LOFilter(row) {
			continue
		}
		date := d.DateByKey(row.OrderDate)
		if q.DateFilter != nil && !q.DateFilter(date) {
			continue
		}
		var c *ssb.Customer
		var s *ssb.Supplier
		var p *ssb.Part
		ok := true
		for _, ix := range indexes {
			var key uint32
			switch ix.name {
			case "customer":
				key = row.CustKey
			case "supplier":
				key = row.SuppKey
			case "part":
				key = row.PartKey
			}
			v, hit := ix.ix.Get(uint64(key))
			if !hit {
				ok = false
				break
			}
			switch ix.name {
			case "customer":
				c = &d.Customer[v]
			case "supplier":
				s = &d.Supplier[v]
			case "part":
				p = &d.Part[v]
			}
		}
		if !ok {
			continue
		}
		qualifying++
		key := ""
		if q.GroupBy != nil {
			key = q.GroupBy(row, date, c, s, p)
		}
		res[key] += q.Aggregate(row)
	}
	reads := map[string]int64{}
	for _, ix := range indexes {
		reads[ix.name] = ix.ix.Stats().BucketReads
	}
	return reads, order, qualifying, res
}

// TestProbeReadsMatchPerRowReplay: the bucket reads the engine credits from
// the shared facts' probe frequencies equal live per-row probing exactly,
// in the same probe order, with the same qualifying rows and answer.
func TestProbeReadsMatchPerRowReplay(t *testing.T) {
	e := newEngine(t, Options{NUMAAware: true})
	for _, q := range ssb.Queries() {
		ex := e.factExecFor(q)
		reads, order, qualifying, res := probeReplay(e, q)
		if len(ex.probeOrder) != len(order) {
			t.Fatalf("%s: %d probed indexes, oracle %d", q.ID, len(ex.probeOrder), len(order))
		}
		for i, ix := range ex.probeOrder {
			if ix.name != order[i] {
				t.Errorf("%s: probe %d is %s, oracle %s", q.ID, i, ix.name, order[i])
			}
			if ix.probeReads != reads[ix.name] {
				t.Errorf("%s %s: bucket reads %d, oracle %d", q.ID, ix.name, ix.probeReads, reads[ix.name])
			}
		}
		if ex.facts.Qualifying != qualifying {
			t.Errorf("%s: qualifying %d, oracle %d", q.ID, ex.facts.Qualifying, qualifying)
		}
		if !ex.facts.Result.Equal(res) {
			t.Errorf("%s: result differs from the per-row replay", q.ID)
		}
	}
}
