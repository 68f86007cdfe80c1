package machine

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/simtrace"
	"repro/internal/upi"
	"repro/internal/xpdimm"
)

// Timeline row (tid) assignment within a machine's trace process. Rows group
// by hardware layer: the control row carries run and pre-fault spans, the UPI
// row carries link and warm-up activity, each socket's Optane media gets its
// own row, and each logical core gets one row for the streams it executes.
const (
	tidControl = 0
	tidUPI     = 1
	tidXPDIMM  = 2 // + socket
	tidFault   = 50
	tidCore    = 100
)

// traceInit registers the machine as a trace process and emits the
// self-describing topology/interleave instants. No-op without a recorder.
func (m *Machine) traceInit() {
	m.trace = m.cfg.Trace.Process("machine")
	if m.trace == nil {
		return
	}
	m.trace.Thread(tidControl, "control")
	m.topo.TraceInfo(m.trace, tidControl, m.trace.Cursor())
	m.layout.TraceInfo(m.trace, tidControl, m.trace.Cursor())
}

func (m *Machine) traceUPIThread() {
	m.trace.Thread(tidUPI, "upi")
}

func (m *Machine) traceSocketTid(socket int) int {
	m.trace.Thread(tidXPDIMM+socket, fmt.Sprintf("pmem media s%d", socket))
	return tidXPDIMM + socket
}

func (m *Machine) traceCoreTid(core int) int {
	m.trace.Thread(tidCore+core, fmt.Sprintf("core %d", core))
	return tidCore + core
}

// traceCursor returns the trace process's current timeline offset (0
// without a recorder); used to convert machine-clock fault times into
// trace coordinates.
func (m *Machine) traceCursor() float64 { return m.trace.Cursor() }

func (m *Machine) traceFaultTid() int {
	m.trace.Thread(tidFault, "faults")
	return tidFault
}

// faultArgs renders a fault event's target and severity for trace tooltips.
func faultArgs(e *faults.Event) []simtrace.Arg {
	args := []simtrace.Arg{simtrace.S("type", e.Type)}
	switch e.Type {
	case faults.EvUPIDegrade:
		args = append(args,
			simtrace.F("from", float64(e.From)),
			simtrace.F("to", float64(e.To)),
			simtrace.F("factor", e.Factor))
	case faults.EvChannelOffline:
		args = append(args,
			simtrace.F("socket", float64(e.Socket)),
			simtrace.F("channels", float64(e.Channels)))
	default:
		args = append(args,
			simtrace.F("socket", float64(e.Socket)),
			simtrace.F("factor", e.Factor))
	}
	return args
}

// traceFaultEdge marks a fault transition as an instant on the fault row.
func (m *Machine) traceFaultEdge(name string, t faults.Transition, atSec float64) {
	if m.trace == nil {
		return
	}
	tid := m.traceFaultTid()
	m.trace.Instant(simtrace.CatFault, fmt.Sprintf("%s: %s", name, t.Event.Type),
		tid, atSec, faultArgs(t.Event)...)
}

// traceFaultSpan lays the completed fault window (activation through full
// recovery) out on the fault row.
func (m *Machine) traceFaultSpan(t faults.Transition, startSec, endSec float64) {
	if m.trace == nil {
		return
	}
	tid := m.traceFaultTid()
	m.trace.Span(simtrace.CatFault, t.Event.Type, tid, startSec, endSec-startSec,
		faultArgs(t.Event)...)
}

// runTrace accumulates one run's timeline bookkeeping: per-socket media
// traffic, per-link UPI traffic, per-step rates for counter tracks, and the
// observed start of each directory warm-up phase. All state is indexed by
// dense integers or filled in deterministic flow order, so emission order is
// reproducible.
type runTrace struct {
	base float64 // process-cursor offset of this run's t=0

	readMedia   []float64 // per socket, whole run
	writeMedia  []float64
	lineWrites  []float64
	lineFlushes []float64
	upiData     [][]float64 // [from][to], whole run
	upiReq      [][]float64

	stepRead  []float64 // per socket, current solver step
	stepWrite []float64
	stepUPI   [][]float64

	warmStart map[upi.Key]float64 // first cold observation, run-relative sec
	coldBytes map[upi.Key]float64
}

func newRunTrace(sockets int, base float64) *runTrace {
	t := &runTrace{
		base:        base,
		readMedia:   make([]float64, sockets),
		writeMedia:  make([]float64, sockets),
		lineWrites:  make([]float64, sockets),
		lineFlushes: make([]float64, sockets),
		stepRead:    make([]float64, sockets),
		stepWrite:   make([]float64, sockets),
		warmStart:   make(map[upi.Key]float64),
		coldBytes:   make(map[upi.Key]float64),
	}
	t.upiData = make([][]float64, sockets)
	t.upiReq = make([][]float64, sockets)
	t.stepUPI = make([][]float64, sockets)
	for s := range t.upiData {
		t.upiData[s] = make([]float64, sockets)
		t.upiReq[s] = make([]float64, sockets)
		t.stepUPI[s] = make([]float64, sockets)
	}
	return t
}

// traceStepStart notes the first cold observation of a warm-up phase.
func (rm *runModel) traceStepStart(now float64) {
	t := rm.tr
	if t == nil {
		return
	}
	for i := range rm.fctx {
		fc := &rm.fctx[i]
		if fc.active && fc.cold {
			if _, ok := t.warmStart[fc.coldKey]; !ok {
				t.warmStart[fc.coldKey] = now
			}
		}
	}
}

// traceWarmFlip emits the warm-up span the moment a (region, socket) pair
// turns warm; endSec is run-relative.
func (rm *runModel) traceWarmFlip(key upi.Key, endSec float64) {
	t := rm.tr
	if t == nil {
		return
	}
	rm.m.traceUPIThread()
	start := t.warmStart[key]
	upi.TraceWarmup(rm.m.trace, tidUPI, key, t.base+start, endSec-start, t.coldBytes[key])
}

// traceStepEnd renders the step's aggregate rates as counter tracks and
// resets the step accumulators.
func (rm *runModel) traceStepEnd(now, dt float64) {
	t := rm.tr
	if t == nil || dt <= 0 {
		return
	}
	at := t.base + now
	for s := range t.stepRead {
		r, w := t.stepRead[s], t.stepWrite[s]
		if r > 0 || w > 0 {
			tid := rm.m.traceSocketTid(s)
			rm.m.trace.Counter(simtrace.CatXPDIMM, fmt.Sprintf("pmem media GB/s s%d", s), tid, at,
				simtrace.F("read", r/dt/1e9),
				simtrace.F("write", w/dt/1e9))
		}
		t.stepRead[s] = 0
		t.stepWrite[s] = 0
	}
	var upiArgs []simtrace.Arg
	for a := range t.stepUPI {
		for b := range t.stepUPI[a] {
			if t.stepUPI[a][b] > 0 {
				upiArgs = append(upiArgs, simtrace.F(fmt.Sprintf("s%d->s%d", a, b), t.stepUPI[a][b]/dt/1e9))
			}
			t.stepUPI[a][b] = 0
		}
	}
	if len(upiArgs) > 0 {
		rm.m.traceUPIThread()
		rm.m.trace.Counter(simtrace.CatUPI, "upi data GB/s", tidUPI, at, upiArgs...)
	}
}

// traceFinishRun lays the completed run out on the timeline: the run span on
// the control row, each stream on its core's row, each socket's media span,
// and each active UPI link — then advances the cursor past the run.
func (m *Machine) traceFinishRun(rm *runModel, streams []*Stream, elapsed float64, res *RunResult) {
	if m.trace == nil {
		return
	}
	t := rm.tr
	m.runSeq++
	m.trace.Span(simtrace.CatMachine, fmt.Sprintf("run %d", m.runSeq), tidControl, t.base, elapsed,
		simtrace.F("streams", float64(len(streams))),
		simtrace.F("bytes", res.TotalBytes),
		simtrace.F("gbps", res.Bandwidth/1e9))
	for i, s := range streams {
		sr := res.Streams[i]
		tid := m.traceCoreTid(int(s.Placement.Core))
		cpu.TraceStream(m.trace, tid, s.Label, s.Placement, s.Policy, t.base, sr.Seconds,
			simtrace.S("device", s.Region.Class.String()),
			simtrace.S("dir", s.Dir.String()),
			simtrace.S("pattern", s.Pattern.String()),
			simtrace.F("access_size", float64(s.AccessSize)),
			simtrace.F("bytes", sr.Bytes),
			simtrace.F("gbps", sr.Bandwidth/1e9))
	}
	if pf := m.rec.pfBytes.Value(); pf > 0 {
		cpu.TracePrefetch(m.trace, tidControl, t.base+elapsed,
			pf, m.rec.pfUseful.Value(), m.rec.pfWasted.Value())
	}
	for s := 0; s < len(t.readMedia); s++ {
		if t.readMedia[s] > 0 || t.writeMedia[s] > 0 {
			tid := m.traceSocketTid(s)
			xpdimm.TraceMedia(m.trace, tid, s, t.base, elapsed,
				t.readMedia[s], t.writeMedia[s], t.lineWrites[s], t.lineFlushes[s])
		}
	}
	for a := range t.upiData {
		for b := range t.upiData[a] {
			if t.upiData[a][b] > 0 || t.upiReq[a][b] > 0 {
				m.traceUPIThread()
				upi.TraceLink(m.trace, tidUPI, a, b, t.base, elapsed,
					t.upiData[a][b], t.upiReq[a][b])
			}
		}
	}
	m.trace.Advance(elapsed)
}

// tracePreFault puts an explicit pre-fault on the control row and moves the
// timeline past it, since PreFault burns virtual seconds outside any Run.
func (m *Machine) tracePreFault(r *Region, sec, bytes float64) {
	if m.trace == nil || sec <= 0 {
		return
	}
	m.trace.Span(simtrace.CatMachine, fmt.Sprintf("prefault %s", r.Name), tidControl,
		m.trace.Cursor(), sec,
		simtrace.F("bytes", bytes),
		simtrace.S("mode", r.Mode.String()))
	m.trace.Advance(sec)
}

// traceWarmEvent marks explicit warmth transitions (WarmFor/CoolFor) on the
// UPI row at the current cursor.
func (m *Machine) traceWarmEvent(name string, k upi.Key) {
	if m.trace == nil {
		return
	}
	m.traceUPIThread()
	upi.TraceWarmEvent(m.trace, tidUPI, name, k, m.trace.Cursor())
}

// traceAccumulate folds one flow's dt-step traffic into the run accumulator;
// mirrors recordTraffic's attribution so the timeline and the metrics agree.
func (rm *runModel) traceAccumulate(s *Stream, fc *flowCtx, moved float64) {
	t := rm.tr
	if t == nil {
		return
	}
	gran := float64(rm.m.cfg.PMEM.Granularity)
	if s.Region.Class == access.PMEM {
		sock := int(s.Region.Socket)
		missShare := 1.0
		if fc.mmHit >= 0 {
			missShare = 1 - fc.mmHit
		}
		if s.Dir == access.Read {
			media := moved * fc.readRA * missShare
			t.readMedia[sock] += media
			t.stepRead[sock] += media
		} else {
			media := moved * fc.writeWA * missShare
			t.writeMedia[sock] += media
			t.stepWrite[sock] += media
			t.lineWrites[sock] += moved * missShare / gran
			t.lineFlushes[sock] += media / gran
		}
	}
	if fc.far {
		ts := int(rm.m.threadSocket(s))
		ds := int(s.Region.Socket)
		dataFrom, dataTo := ds, ts
		if s.Dir == access.Write {
			dataFrom, dataTo = ts, ds
		}
		data := moved * rm.m.cfg.UPI.DataCostFactor
		t.upiData[dataFrom][dataTo] += data
		t.upiReq[dataTo][dataFrom] += moved * rm.m.cfg.UPI.RequestCostFactor
		t.stepUPI[dataFrom][dataTo] += data
		if fc.cold {
			t.coldBytes[fc.coldKey] += moved
		}
	}
}
