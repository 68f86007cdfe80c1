// Package ssd models the NVMe block device the paper uses as its
// "traditional OLAP system" baseline (Section 6.2, footnote 3): an Intel SSD
// DC P4610 with 3.20 GB/s sequential read and 2.08 GB/s sequential write.
package ssd

import "repro/internal/access"

// Params holds the SSD model constants.
type Params struct {
	SeqReadBytesPerSec  float64
	SeqWriteBytesPerSec float64
	// RandReadBytesPerSec / RandWriteBytesPerSec are 4 KiB random throughput
	// at high queue depth (datasheet-level numbers for the P4610).
	RandReadBytesPerSec  float64
	RandWriteBytesPerSec float64
	// BlockBytes is the access granularity: all I/O rounds up to blocks.
	BlockBytes int64
}

// DefaultParams returns the Intel SSD DC P4610 model.
func DefaultParams() Params {
	return Params{
		SeqReadBytesPerSec:   3.20e9,
		SeqWriteBytesPerSec:  2.08e9,
		RandReadBytesPerSec:  2.6e9, // ~640k IOPS x 4 KiB
		RandWriteBytesPerSec: 0.8e9, // ~200k IOPS x 4 KiB
		BlockBytes:           4096,
	}
}

// Rate returns the device throughput for a direction/pattern combination.
func (p *Params) Rate(dir access.Direction, pattern access.Pattern) float64 {
	if pattern == access.Random {
		if dir == access.Read {
			return p.RandReadBytesPerSec
		}
		return p.RandWriteBytesPerSec
	}
	if dir == access.Read {
		return p.SeqReadBytesPerSec
	}
	return p.SeqWriteBytesPerSec
}

// Amplification returns device bytes transferred per application byte: I/O
// smaller than a block still moves a whole block.
func (p *Params) Amplification(accessSize int64) float64 {
	if accessSize <= 0 || accessSize >= p.BlockBytes {
		blocks := (accessSize + p.BlockBytes - 1) / p.BlockBytes
		if accessSize <= 0 {
			return 1
		}
		return float64(blocks*p.BlockBytes) / float64(accessSize)
	}
	return float64(p.BlockBytes) / float64(accessSize)
}
