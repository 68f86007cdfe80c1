// Package dramdimm models the DDR4 DRAM side of the machine: per-socket
// bandwidth, the whole-system ceiling, and the node-local allocation effect
// that limits small random-access regions to half a socket's channels
// (Section 5.2: "a 2 GB DRAM allocation is present on only one NUMA node
// within the socket, i.e., only 3/6 channels process requests").
package dramdimm

import "repro/internal/access"

// Params holds the calibration constants of the DRAM model.
// Anchors (Figure 6b, Section 5.2): ~100 GB/s near sequential read per
// socket, 185 GB/s whole-system maximum, ~33 GB/s far read (UPI-capped),
// random bandwidth ~50% of sequential for small regions reaching ~90% when
// all channels are active.
type Params struct {
	// SocketReadBytesPerSec is one socket's sequential read capacity with
	// all six channels active.
	SocketReadBytesPerSec float64
	// SocketWriteBytesPerSec is one socket's sequential write capacity.
	SocketWriteBytesPerSec float64
	// SystemReadBytesPerSec caps the accumulated read bandwidth across all
	// sockets (185 GB/s in Figure 6b, slightly below 2 x 100).
	SystemReadBytesPerSec float64
	// ChannelsPerSocket and NodesPerSocket describe channel spreading.
	ChannelsPerSocket int
	NodesPerSocket    int
	// RandomPenalty multiplies media cost for random access patterns
	// (bank conflicts, row-buffer misses): DRAM random bandwidth tops out
	// around 90% of sequential once all channels are active.
	RandomPenalty float64
	// MixedReadInflation is the (small) read-cost inflation per unit of
	// write utilization; the paper notes the read/write imbalance is
	// "considerably smaller on DRAM" (Section 5.1).
	MixedReadInflation float64
	// WriteFlowWeight is the media fair-share weight of DRAM write flows.
	WriteFlowWeight float64
	// ContendedEfficiency derates a socket's DRAM while the same region is
	// accessed from both sockets (directory coherency, Section 3.5) - the
	// effect exists on DRAM but is milder than on PMEM.
	ContendedEfficiency float64
	// DirectoryWriteFraction is the write traffic per byte of contended
	// cross-socket reads; tiny for DRAM (directory updates are cheap).
	DirectoryWriteFraction float64
}

// DefaultParams returns the calibrated DDR4 model for the paper's platform
// (6 x 16 GB DIMMs per socket, 2 NUMA nodes per socket).
func DefaultParams() Params {
	return Params{
		SocketReadBytesPerSec:  100e9,
		SocketWriteBytesPerSec: 60e9,
		SystemReadBytesPerSec:  185e9,
		ChannelsPerSocket:      6,
		NodesPerSocket:         2,
		RandomPenalty:          1.1,
		MixedReadInflation:     0.3,
		WriteFlowWeight:        1.5,
		ContendedEfficiency:    0.65,
		DirectoryWriteFraction: 0.05,
	}
}

// ChannelFraction returns the fraction of a socket's channels serving a
// region of the given size under the default first-touch node-local policy:
// a region that fits within one NUMA node's DRAM lives on that node's half
// of the channels; larger regions spread across both nodes.
//
// nodeBytes is the DRAM capacity of one NUMA node (48 GiB on the paper's
// platform).
func (p *Params) ChannelFraction(regionBytes, nodeBytes int64) float64 {
	if regionBytes <= 0 || nodeBytes <= 0 {
		return 1
	}
	nodes := (regionBytes + nodeBytes - 1) / nodeBytes
	if nodes >= int64(p.NodesPerSocket) {
		return 1
	}
	return float64(nodes) / float64(p.NodesPerSocket)
}

// MediaPenalty returns the per-byte media cost multiplier for a pattern.
// Sequential access is the baseline; random access pays RandomPenalty.
func (p *Params) MediaPenalty(pattern access.Pattern) float64 {
	if pattern == access.Random {
		return p.RandomPenalty
	}
	return 1
}
