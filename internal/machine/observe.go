package machine

import (
	"fmt"
	"sync"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// recorder holds pre-resolved metric handles for one machine, so the solver
// hot path (runModel.Advance) performs only atomic adds — no map lookups and
// no allocations. Counter names are documented in EXPERIMENTS.md ("Metrics");
// each maps to a hardware counter the paper's methodology reads (iMC channel
// counters, UPI link events, VTune's buffer and prefetch statistics).
type recorder struct {
	reg      *metrics.Registry
	sockets  int
	channels int

	regionAllocs *metrics.Counter
	regionFrees  *metrics.Counter
	allocPMEM    *metrics.Counter
	allocDRAM    *metrics.Counter
	allocSSD     *metrics.Counter
	prefaultB    *metrics.Counter
	prefaultSec  *metrics.Counter
	faultInB     *metrics.Counter
	runCount     *metrics.Counter
	runSeconds   *metrics.Counter

	pmemReadApp    []*metrics.Counter // per socket
	pmemReadMedia  []*metrics.Counter
	pmemWriteApp   []*metrics.Counter
	pmemWriteMedia []*metrics.Counter
	pmemUtilPeak   []*metrics.Gauge
	chReadMedia    [][]*metrics.Counter // [socket][channel]
	chWriteMedia   [][]*metrics.Counter
	chUtilMean     [][]*metrics.Gauge

	dramRead     []*metrics.Counter
	dramWrite    []*metrics.Counter
	dramUtilPeak []*metrics.Gauge
	dirWrites    []*metrics.Counter // directory-update media writes per socket
	ssdBytes     *metrics.Counter

	upiData     [][]*metrics.Counter // [from][to], nil on the diagonal
	upiReq      [][]*metrics.Counter
	upiUtilPeak [][]*metrics.Gauge
	upiCross    *metrics.Counter
	upiColdB    *metrics.Counter
	upiWarmups  *metrics.Counter
	upiMarkWarm *metrics.Counter
	upiInval    *metrics.Counter

	xpbLineWrites  []*metrics.Counter
	xpbLineFlushes []*metrics.Counter
	xpbHitRate     []*metrics.Gauge
	rbufApp        []*metrics.Counter
	rbufMedia      []*metrics.Counter
	rbufHitRate    []*metrics.Gauge
	writeAmpMean   []*metrics.Gauge
	wearBytes      []*metrics.Gauge

	pfBytes    *metrics.Counter
	pfUseful   *metrics.Counter
	pfWasted   *metrics.Counter
	pfEffMean  *metrics.Gauge
	pinStreams [cpu.PinNone + 1]*metrics.Counter // indexed by policy
	pinBytes   [cpu.PinNone + 1]*metrics.Counter
	htShared   *metrics.Counter

	// Fault-injection observability (scraped as sim_fault_* by pmemd).
	faultActivations *metrics.Counter
	faultRecoveries  *metrics.Counter
	faultActive      *metrics.Gauge
	faultThrottleSec *metrics.Counter
	faultChanSec     *metrics.Counter
	faultXPBSec      *metrics.Counter
	faultUPISec      *metrics.Counter
	faultRewarm      *metrics.Counter
	faultScaleMin    *metrics.Gauge
}

func newRecorder(reg *metrics.Registry, topo *topology.Topology) *recorder {
	r := &recorder{
		reg:      reg,
		sockets:  topo.Sockets(),
		channels: topo.ChannelsPerSocket(),

		regionAllocs: reg.Counter("machine.region.allocs"),
		regionFrees:  reg.Counter("machine.region.frees"),
		allocPMEM:    reg.Counter("machine.region.alloc_bytes.pmem"),
		allocDRAM:    reg.Counter("machine.region.alloc_bytes.dram"),
		allocSSD:     reg.Counter("machine.region.alloc_bytes.ssd"),
		prefaultB:    reg.Counter("machine.prefault.bytes"),
		prefaultSec:  reg.Counter("machine.prefault.seconds"),
		faultInB:     reg.Counter("machine.fault_in.bytes"),
		runCount:     reg.Counter("machine.run.count"),
		runSeconds:   reg.Counter("machine.run.virtual_seconds"),

		ssdBytes: reg.Counter("ssd.bytes"),

		upiCross:    reg.Counter("upi.crossings"),
		upiColdB:    reg.Counter("upi.cold_bytes"),
		upiWarmups:  reg.Counter("upi.warmups"),
		upiMarkWarm: reg.Counter("upi.mark_warm"),
		upiInval:    reg.Counter("upi.invalidations"),

		pfBytes:   reg.Counter("cpu.prefetch.bytes"),
		pfUseful:  reg.Counter("cpu.prefetch.useful_bytes"),
		pfWasted:  reg.Counter("cpu.prefetch.wasted_media_bytes"),
		pfEffMean: reg.Gauge("cpu.prefetch.efficiency.mean"),
		htShared:  reg.Counter("cpu.ht_shared.streams"),

		faultActivations: reg.Counter("fault.activations"),
		faultRecoveries:  reg.Counter("fault.recoveries"),
		faultActive:      reg.Gauge("fault.active"),
		faultThrottleSec: reg.Counter("fault.throttle.socket_seconds"),
		faultChanSec:     reg.Counter("fault.channel_offline.socket_seconds"),
		faultXPBSec:      reg.Counter("fault.xpbuffer.socket_seconds"),
		faultUPISec:      reg.Counter("fault.upi_degraded.link_seconds"),
		faultRewarm:      reg.Counter("fault.rewarm.invalidations"),
		faultScaleMin:    reg.Gauge("fault.media_scale.min"),
	}
	// A healthy machine never ticks the fault path; 1 (no derate) is the
	// meaningful resting value for the min-scale gauge, not 0.
	r.faultScaleMin.Set(1)
	for pol := cpu.PinCores; pol <= cpu.PinNone; pol++ {
		r.pinStreams[pol] = reg.Counter(memoName("cpu.pin.%s.streams", pol, nil))
		r.pinBytes[pol] = reg.Counter(memoName("cpu.pin.%s.bytes", pol, nil))
	}
	for s := 0; s < r.sockets; s++ {
		r.pmemReadApp = append(r.pmemReadApp, reg.Counter(memoName("pmem.s%d.read.app_bytes", s, nil)))
		r.pmemReadMedia = append(r.pmemReadMedia, reg.Counter(memoName("pmem.s%d.read.media_bytes", s, nil)))
		r.pmemWriteApp = append(r.pmemWriteApp, reg.Counter(memoName("pmem.s%d.write.app_bytes", s, nil)))
		r.pmemWriteMedia = append(r.pmemWriteMedia, reg.Counter(memoName("pmem.s%d.write.media_bytes", s, nil)))
		r.pmemUtilPeak = append(r.pmemUtilPeak, reg.Gauge(memoName("pmem.s%d.util.peak", s, nil)))
		r.dramRead = append(r.dramRead, reg.Counter(memoName("dram.s%d.read.bytes", s, nil)))
		r.dramWrite = append(r.dramWrite, reg.Counter(memoName("dram.s%d.write.bytes", s, nil)))
		r.dramUtilPeak = append(r.dramUtilPeak, reg.Gauge(memoName("dram.s%d.util.peak", s, nil)))
		r.dirWrites = append(r.dirWrites, reg.Counter(memoName("pmem.s%d.directory.write_media_bytes", s, nil)))

		var crm, cwm []*metrics.Counter
		var cum []*metrics.Gauge
		for c := 0; c < r.channels; c++ {
			crm = append(crm, reg.Counter(memoName("pmem.s%d.ch%d.read_media_bytes", s, c)))
			cwm = append(cwm, reg.Counter(memoName("pmem.s%d.ch%d.write_media_bytes", s, c)))
			cum = append(cum, reg.Gauge(memoName("pmem.s%d.ch%d.util.mean", s, c)))
		}
		r.chReadMedia = append(r.chReadMedia, crm)
		r.chWriteMedia = append(r.chWriteMedia, cwm)
		r.chUtilMean = append(r.chUtilMean, cum)

		r.xpbLineWrites = append(r.xpbLineWrites, reg.Counter(memoName("xpdimm.s%d.xpbuffer.line_writes", s, nil)))
		r.xpbLineFlushes = append(r.xpbLineFlushes, reg.Counter(memoName("xpdimm.s%d.xpbuffer.line_flushes", s, nil)))
		r.xpbHitRate = append(r.xpbHitRate, reg.Gauge(memoName("xpdimm.s%d.xpbuffer.hit_rate", s, nil)))
		r.rbufApp = append(r.rbufApp, reg.Counter(memoName("xpdimm.s%d.readbuf.app_bytes", s, nil)))
		r.rbufMedia = append(r.rbufMedia, reg.Counter(memoName("xpdimm.s%d.readbuf.media_bytes", s, nil)))
		r.rbufHitRate = append(r.rbufHitRate, reg.Gauge(memoName("xpdimm.s%d.readbuf.hit_rate", s, nil)))
		r.writeAmpMean = append(r.writeAmpMean, reg.Gauge(memoName("xpdimm.s%d.write_amplification.mean", s, nil)))
		r.wearBytes = append(r.wearBytes, reg.Gauge(memoName("xpdimm.s%d.wear.media_bytes", s, nil)))
	}
	for a := 0; a < r.sockets; a++ {
		var data, req []*metrics.Counter
		var util []*metrics.Gauge
		for b := 0; b < r.sockets; b++ {
			if a == b {
				data = append(data, nil)
				req = append(req, nil)
				util = append(util, nil)
				continue
			}
			data = append(data, reg.Counter(memoName("upi.s%dto%d.data_bytes", a, b)))
			req = append(req, reg.Counter(memoName("upi.s%dto%d.req_bytes", a, b)))
			util = append(util, reg.Gauge(memoName("upi.s%dto%d.util.peak", a, b)))
		}
		r.upiData = append(r.upiData, data)
		r.upiReq = append(r.upiReq, req)
		r.upiUtilPeak = append(r.upiUtilPeak, util)
	}
	return r
}

// names memoizes the metric and resource names machines register, keyed by
// format and operands: machines of one shape register the same names, so a
// process formats each once.
var names = struct {
	sync.Mutex
	m map[nameKey]string
}{m: map[nameKey]string{}}

type nameKey struct {
	format string
	a, b   any
}

// memoName returns fmt.Sprintf(format, a), or (format, a, b) when b is not
// nil, formatting it only on the process's first request.
func memoName(format string, a, b any) string {
	names.Lock()
	defer names.Unlock()
	k := nameKey{format, a, b}
	if s, ok := names.m[k]; ok {
		return s
	}
	args := []any{a, b}
	if b == nil {
		args = args[:1]
	}
	names.m[k] = fmt.Sprintf(format, args...)
	return names.m[k]
}

// recordAlloc accounts a new region.
func (r *recorder) recordAlloc(class access.DeviceClass, size int64) {
	r.regionAllocs.Inc()
	switch class {
	case access.PMEM:
		r.allocPMEM.Add(float64(size))
	case access.DRAM:
		r.allocDRAM.Add(float64(size))
	case access.SSD:
		r.allocSSD.Add(float64(size))
	}
}

// finishRun sets the derived end-of-run gauges from the accumulated
// counters: buffer hit rates, mean write amplification, mean per-channel
// utilization, peak resource utilizations, and wear.
func (m *Machine) finishRun(rm *runModel, elapsed float64) {
	r := m.rec
	r.runCount.Inc()
	r.runSeconds.Add(elapsed)
	seconds := r.runSeconds.Value()

	chReadCap := m.cfg.PMEM.MediaReadBytesPerSec
	chWriteCap := m.cfg.PMEM.MediaWriteBytesPerSec
	for s := 0; s < r.sockets; s++ {
		if flushes := r.xpbLineFlushes[s].Value(); flushes > 0 {
			r.xpbHitRate[s].Set(r.xpbLineWrites[s].Value() / flushes)
		}
		if media := r.rbufMedia[s].Value(); media > 0 {
			r.rbufHitRate[s].Set(r.rbufApp[s].Value() / media)
		}
		if app := r.pmemWriteApp[s].Value(); app > 0 {
			r.writeAmpMean[s].Set(r.pmemWriteMedia[s].Value() / app)
		}
		r.wearBytes[s].SetMax(m.wear[s].MediaBytesWritten())
		r.pmemUtilPeak[s].SetMax(rm.peakFor(rm.pmemMedia[s]))
		r.dramUtilPeak[s].SetMax(rm.peakFor(rm.dramMedia[s]))
		if seconds > 0 {
			for c := 0; c < r.channels; c++ {
				u := r.chReadMedia[s][c].Value()/chReadCap + r.chWriteMedia[s][c].Value()/chWriteCap
				r.chUtilMean[s][c].Set(u / seconds)
			}
		}
	}
	if pf := r.pfBytes.Value(); pf > 0 {
		r.pfEffMean.Set(r.pfUseful.Value() / pf)
	}
	for a := 0; a < r.sockets; a++ {
		for b := 0; b < r.sockets; b++ {
			if a != b {
				r.upiUtilPeak[a][b].SetMax(rm.peakFor(rm.upiDirs[[2]int{a, b}]))
			}
		}
	}
}

// recordChannelMedia spreads a stream's media traffic over the channels it
// engages. The interleave layout rotates stripes round-robin across the
// socket's channels, so a stream engaging nd of them sweeps the whole set
// over time; the per-socket cursor reproduces that rotation deterministically.
func (m *Machine) recordChannelMedia(socket topology.SocketID, dir access.Direction, engaged int, mediaBytes float64) {
	r := m.rec
	d := r.channels
	if engaged < 1 {
		engaged = 1
	}
	if engaged > d {
		engaged = d
	}
	counters := r.chReadMedia[socket]
	if dir == access.Write {
		counters = r.chWriteMedia[socket]
	}
	per := mediaBytes / float64(engaged)
	start := m.chCursor[socket]
	for k := 0; k < engaged; k++ {
		counters[(start+k)%d].Add(per)
	}
	m.chCursor[socket] = (start + engaged) % d
}
