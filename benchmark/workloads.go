package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/experiments"
)

// workload is one input set the benchmark runs. Serving workloads send an
// open-loop phase and then a closed-loop phase to a stack; catalog runs
// the experiment catalogue in fresh processes.
type workload struct {
	name string
	why  string

	stack string // the serving child's stack (see stacks); empty for catalog
	// openRate is the open-loop Poisson arrival rate (requests per second).
	openRate float64
	// closedRate sizes the closed loop: it sends closedRate * seconds/2
	// requests, about seconds/2 of work on a 2-core host. The count is fixed
	// for a given -seconds, so a faster build does the same work faster
	// instead of more work.
	closedRate float64
	// want checks the cache tier of a measured request; nil accepts any.
	want func(r request, tier string) bool
	// ref is the host-speed reference its times are normalized by.
	ref refKind
}

var workloads = []workload{
	{
		name: "catalog",
		why:  "fresh-process experiments -quick -sf 0.05 -j 1: the batch reproduction path, dataset generation included; serving layers idle",
	},
	{
		name: "serve-cold", stack: "single", openRate: 150, closedRate: 600,
		why:  "one pmemd, every request a new what-if key: simulation, diagnosis, encoding and disk write-through; no cache hits",
		want: func(_ request, tier string) bool { return tier == "miss" },
	},
	{
		name: "serve-lru", stack: "single", openRate: 3000, closedRate: 11000, ref: refEcho,
		why:  "one pmemd, Zipf traffic over 512 cached keys, half respelled: HTTP edge, canonical key and LRU only",
		want: func(_ request, tier string) bool { return tier == "hit" },
	},
	{
		name: "fleet-disk", stack: "fleet", openRate: 800, closedRate: 4000, ref: refEcho,
		why: "two restarted workers behind the affinity router, 95% reads of 4000 disk-resident keys: router hop and SSTable reads",
		want: func(r request, tier string) bool {
			if r.fresh {
				return tier == "miss"
			}
			return tier == "disk" || tier == "hit"
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// lightIDs are the catalogue entries whose cold what-if run takes about a
// millisecond or less; fleet-disk draws its keys from them.
var lightIDs = []string{
	"abl02", "abl03", "abl04", "abl05", "dax01", "ext01", "ext04",
	"fault01", "fault02", "fault03", "fig03", "fig04", "fig05", "fig07",
	"fig08", "fig09", "fig10", "fig12", "fig13", "ssd01",
}

func catalogIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// request is one POST /v1/run body. ident names its meaning: respelled
// bodies share their original's ident and must get the same bytes.
type request struct {
	body  []byte
	ident string
	fresh bool // a key no earlier request asked for
}

// whatIf mints what-if requests with distinct integer PMEM media read
// bandwidths, so every key it mints is new.
type whatIf struct {
	rng  *rand.Rand
	used map[int64]bool
}

func newWhatIf(rng *rand.Rand) *whatIf { return &whatIf{rng: rng, used: map[int64]bool{}} }

const minMediaRead, maxMediaRead = 3_300_000_000, 10_000_000_000

func (w *whatIf) next(id string) (plain, respelled request) {
	k := int64(0)
	for k == 0 || w.used[k] {
		k = minMediaRead + w.rng.Int63n(maxMediaRead-minMediaRead+1)
	}
	w.used[k] = true
	ident := fmt.Sprintf("%s/%d", id, k)
	plain = request{ident: ident, fresh: true,
		body: []byte(fmt.Sprintf(`{"id":%q,"quick":true,"sf":0.05,"machine":{"PMEM":{"MediaReadBytesPerSec":%d}}}`, id, k))}
	// Same meaning, different spelling: field order, spelled-out defaults,
	// a null fault plan and a float literal.
	respelled = request{ident: ident,
		body: []byte(fmt.Sprintf(`{"machine":{"PMEM":{"MediaReadBytesPerSec":%d.0}},"faults":null,"metrics":false,"trace":false,"async":false,"sf":0.05,"quick":true,"id":%q}`, k, id))}
	return plain, respelled
}

// plan is a serving workload's generated traffic.
type plan struct {
	setup  []request
	sched  []time.Duration
	open   []request
	closed []request
}

// scale sizes a workload's traffic. -short shrinks key counts (and the
// serving child its LRU) 16-fold for smoke runs.
type scale struct {
	seconds float64
	short   bool
}

func (s scale) keys(n int) int {
	if s.short {
		return n / 16
	}
	return n
}

func (s scale) openDur() time.Duration {
	return time.Duration(s.seconds / 2 * float64(time.Second))
}

func (s scale) closedCount(rate float64) int {
	return int(math.Round(rate * s.seconds / 2))
}

// makePlan generates a serving workload's traffic from seed.
func makePlan(w workload, seed int64, sc scale) plan {
	rng := rand.New(rand.NewSource(seed))
	wi := newWhatIf(rng)
	var p plan
	p.sched = poissonSchedule(seed^0x5eed, w.openRate, sc.openDur())
	nOpen, nClosed := len(p.sched), sc.closedCount(w.closedRate)
	ids := catalogIDs()
	switch w.name {
	case "serve-cold":
		for _, id := range ids {
			r, _ := wi.next(id)
			p.setup = append(p.setup, r)
		}
		gen := func(n int) []request {
			out := make([]request, n)
			for i := range out {
				out[i], _ = wi.next(ids[rng.Intn(len(ids))])
			}
			return out
		}
		p.open, p.closed = gen(nOpen), gen(nClosed)
	case "serve-lru":
		n := sc.keys(512)
		plain := make([]request, n)
		resp := make([]request, n)
		for i := range plain {
			plain[i], resp[i] = wi.next(ids[rng.Intn(len(ids))])
		}
		p.setup = plain
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
		gen := func(m int) []request {
			out := make([]request, m)
			for i := range out {
				k := zipf.Uint64()
				if rng.Intn(2) == 0 {
					out[i] = resp[k]
				} else {
					out[i] = plain[k]
				}
				out[i].fresh = false
			}
			return out
		}
		p.open, p.closed = gen(nOpen), gen(nClosed)
	case "fleet-disk":
		n := sc.keys(4000)
		for i := 0; i < n; i++ {
			r, _ := wi.next(lightIDs[rng.Intn(len(lightIDs))])
			p.setup = append(p.setup, r)
		}
		gen := func(m int) []request {
			out := make([]request, m)
			for i := range out {
				if rng.Float64() < 0.05 {
					out[i], _ = wi.next(lightIDs[rng.Intn(len(lightIDs))])
				} else {
					out[i] = p.setup[rng.Intn(n)]
					out[i].fresh = false
				}
			}
			return out
		}
		p.open, p.closed = gen(nOpen), gen(nClosed)
	}
	return p
}

// catalogRequests is the catalog workload's request stream: every entry
// as pmemd would be asked for it.
func catalogRequests() []request {
	var out []request
	for _, id := range catalogIDs() {
		out = append(out, request{ident: id, fresh: true,
			body: []byte(fmt.Sprintf(`{"id":%q,"quick":true,"sf":0.05}`, id))})
	}
	return out
}
