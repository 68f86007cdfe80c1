// Package xpdimm models an Intel Optane DC Persistent Memory DIMM: its media
// bandwidth, its 256 B internal access granularity ("XPLine"), the read
// buffer that absorbs small sequential reads, and the write-combining buffer
// ("XPBuffer") whose pressure behaviour produces the paper's counterintuitive
// write results (Section 4): more threads and larger access sizes *reduce*
// write bandwidth.
//
// The model is expressed as per-byte media amplification factors: an access
// stream delivering r bytes/s of application data consumes
// r x amplification bytes/s of media bandwidth. The machine simulator feeds
// these factors into the fluid solver as per-byte costs.
package xpdimm

import (
	"math"

	"repro/internal/access"
)

// Params holds the calibration constants of the Optane DIMM model. The
// anchors come from the paper (Sections 2-5) and, where the paper is
// silent, from Yang et al. [54] ("An Empirical Guide to the Behavior and Use
// of Scalable Persistent Memory", FAST 2020).
type Params struct {
	// MediaReadBytesPerSec is one DIMM's sequential media read bandwidth.
	// Anchor: ~40 GB/s per 6-DIMM socket (Figure 3) => 6.67 GB/s per DIMM.
	MediaReadBytesPerSec float64
	// MediaWriteBytesPerSec is one DIMM's media write bandwidth.
	// Anchor: 12.6 GB/s per socket peak (Section 4.1) => 2.1 GB/s per DIMM.
	MediaWriteBytesPerSec float64
	// Granularity is the internal access size (256 B XPLine, Section 2.1).
	Granularity int64
	// BufferLines is the number of 256 B lines the per-socket set of
	// write-combining buffers can hold before streams evict each other's
	// partially filled lines (Section 4.2). Expressed per socket (all six
	// DIMMs) because streams spread across the interleave set.
	BufferLines int
	// WriteWindowBytes is how many bytes of one stream's stores are
	// simultaneously in flight against the buffers (CPU store buffers plus
	// WPQ depth). Larger streams pressure the XPBuffer more (Section 4.2).
	WriteWindowBytes int64
	// PressureThreshold, PressureSlope, PressureExp, PressureCap shape the
	// buffer-pressure write amplification: wa = 1 + slope*max(0,
	// occupancy-threshold)^exp, capped at PressureCap. Calibrated so that
	// 4-6 threads sustain ~12.5 GB/s at any size while 36 threads at >=4 KiB
	// fall to 5-6 GB/s (Figures 7 and 8).
	PressureThreshold float64
	PressureSlope     float64
	PressureExp       float64
	PressureCap       float64
	// SmallGroupedWA is the cross-thread partial-line flush amplification for
	// grouped stores below the 256 B granularity: the buffer cannot combine
	// writes across threads (Section 4.1), so interleaved sub-line stores
	// flush lines more than once.
	SmallGroupedWA float64
	// SmallIndividualWA is the residual amplification for sub-256 B
	// *individual* sequential stores, where combining within one stream
	// works but flush boundaries still straddle lines.
	SmallIndividualWA float64
	// RandomMediaPenalty multiplies media cost for random access: random
	// patterns defeat the DIMM-internal prefetch and bank parallelism, so
	// peak random bandwidth is ~2/3 of sequential (Section 5.2).
	RandomMediaPenalty float64
	// MixedReadInflation is the read-cost inflation per unit of write media
	// utilization: write operations block the iMC queues for longer than
	// reads, hurting concurrent readers disproportionately (Section 5.1,
	// "read/write imbalance").
	MixedReadInflation float64
	// WriteFlowWeight is the fair-share weight of write flows relative to
	// read flows at the media: non-temporal stores retire without waiting
	// for data responses, so a writer sustains a larger share against many
	// readers than per-thread fairness would suggest (Figure 11).
	WriteFlowWeight float64
	// FarWriteWA is the write amplification of cross-socket (far) stores:
	// the paper measured ntstore behaving as read-modify-write across the
	// UPI, with up to 10x internal amplification; 2.0 reproduces the ~7 GB/s
	// far-write ceiling (Section 4.4).
	FarWriteWA float64
	// ContendedEfficiency derates a socket's media capacity while the same
	// memory region is actively accessed from both sockets (cache-coherency
	// directory remapping, Sections 3.4-3.5).
	ContendedEfficiency float64
	// DirectoryWriteFraction is the media *write* traffic generated per byte
	// of contended cross-socket reads (directory updates written to PMEM,
	// Section 3.5) - the reason same-region sharing is "especially harmful
	// in PMEM".
	DirectoryWriteFraction float64
}

// DefaultParams returns the calibrated Optane 100-series model matching the
// paper's platform.
func DefaultParams() Params {
	return Params{
		MediaReadBytesPerSec:   40e9 / 6,
		MediaWriteBytesPerSec:  12.6e9 / 6,
		Granularity:            256,
		BufferLines:            384, // 64 lines (16 KiB) per DIMM x 6
		WriteWindowBytes:       12 << 10,
		PressureThreshold:      0.7,
		PressureSlope:          1.2,
		PressureExp:            1.2,
		PressureCap:            2.5,
		SmallGroupedWA:         2.5,
		SmallIndividualWA:      1.3,
		RandomMediaPenalty:     1.5,
		MixedReadInflation:     1.68,
		WriteFlowWeight:        2.0,
		FarWriteWA:             2.0,
		ContendedEfficiency:    0.65,
		DirectoryWriteFraction: 0.3,
	}
}

// DerateBuffer returns a copy of the parameters with the XPBuffer shrunk to
// scale times its healthy line count (at least one line survives). Fault
// injection uses this to model buffer degradation: fewer lines raise
// write-combining pressure, and with it write amplification, under the same
// stream population.
func (p *Params) DerateBuffer(scale float64) Params {
	d := *p
	if scale >= 1 {
		return d
	}
	d.BufferLines = max(1, int(math.Round(float64(p.BufferLines)*scale)))
	return d
}

// SocketReadBytesPerSec returns the aggregate sequential read capacity of a
// socket with the given DIMM count.
func (p *Params) SocketReadBytesPerSec(dimms int) float64 {
	return p.MediaReadBytesPerSec * float64(dimms)
}

// SocketWriteBytesPerSec returns the aggregate write capacity of a socket.
func (p *Params) SocketWriteBytesPerSec(dimms int) float64 {
	return p.MediaWriteBytesPerSec * float64(dimms)
}

// ReadAmplification returns media bytes fetched per application byte read.
//
// Sequential reads never amplify: even sub-256 B sequential requests are
// served from the 256 B line already loaded into the DIMM's buffer
// ("the Optane controller can immediately answer consecutive requests from
// the loaded 256 Byte cache line without causing read amplification",
// Section 3.1). Random reads below the granularity fetch a full XPLine per
// request.
func (p *Params) ReadAmplification(accessSize int64, pattern access.Pattern) float64 {
	if pattern.Sequential() {
		return 1
	}
	if accessSize <= 0 {
		return 1
	}
	if accessSize >= p.Granularity {
		// Unaligned tails still round up to whole XPLines.
		lines := (accessSize + p.Granularity - 1) / p.Granularity
		return float64(lines*p.Granularity) / float64(accessSize)
	}
	return float64(p.Granularity) / float64(accessSize)
}

// WriteAmplification returns media bytes written per application byte, for
// `streams` concurrent write streams of `accessSize` on one socket.
//
// It is the product of two effects:
//
//   - sub-granularity term: stores smaller than 256 B force read-modify-write
//     of whole XPLines unless the combining buffer merges them. Merging works
//     within one stream (individual) but not across streams (grouped),
//     Section 4.1.
//   - buffer-pressure term: each stream holds min(accessSize, WriteWindow)
//     bytes of partially combined lines; when the per-socket buffer pool
//     overflows, lines are flushed before they fill, re-writing media
//     (Section 4.2). This produces the boomerang shape of Figure 8.
func (p *Params) WriteAmplification(accessSize int64, pattern access.Pattern, streams int) float64 {
	if accessSize <= 0 || streams <= 0 {
		return 1
	}
	wa := p.subLineWA(accessSize, pattern)
	if pattern == access.Random {
		// Random writes keep only the current operation in flight against
		// the buffers (no sequential run to combine), so their pressure
		// window is one access, capped at an interleave stripe. This is why
		// random writes too are fastest at 4-6 threads (Section 5.2).
		window := accessSize
		if window > 4096 {
			window = 4096
		}
		return wa * p.pressureWA(window, streams)
	}
	return wa * p.pressureWA(accessSize, streams)
}

func (p *Params) subLineWA(accessSize int64, pattern access.Pattern) float64 {
	if accessSize >= p.Granularity {
		if pattern == access.Random {
			lines := (accessSize + p.Granularity - 1) / p.Granularity
			return float64(lines*p.Granularity) / float64(accessSize)
		}
		return 1
	}
	switch pattern {
	case access.SeqGrouped:
		return p.SmallGroupedWA
	case access.SeqIndividual:
		return p.SmallIndividualWA
	default: // Random sub-line stores read-modify-write a whole XPLine.
		return float64(p.Granularity) / float64(accessSize)
	}
}

func (p *Params) pressureWA(accessSize int64, streams int) float64 {
	window := accessSize
	if window > p.WriteWindowBytes {
		window = p.WriteWindowBytes
	}
	lines := float64(window) / float64(p.Granularity)
	if lines < 1 {
		lines = 1
	}
	occupancy := float64(streams) * lines / float64(p.BufferLines)
	excess := occupancy - p.PressureThreshold
	if excess <= 0 {
		return 1
	}
	wa := 1 + p.PressureSlope*math.Pow(excess, p.PressureExp)
	if wa > p.PressureCap {
		wa = p.PressureCap
	}
	return wa
}

// Wear tracks cumulative media writes, the quantity that ages Optane cells
// ("Like SSDs, PMEM wears out over time", Section 2.1).
type Wear struct {
	mediaBytesWritten float64
}

// Record adds media write traffic (application bytes x amplification).
func (w *Wear) Record(mediaBytes float64) {
	if mediaBytes > 0 {
		w.mediaBytesWritten += mediaBytes
	}
}

// MediaBytesWritten returns the cumulative media write volume.
func (w *Wear) MediaBytesWritten() float64 { return w.mediaBytesWritten }
