package machine

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// WriteJSON serializes the configuration (all model calibration constants
// included), so a modified machine — different DIMM counts, a hypothetical
// faster Optane generation, a prefetcher-less CPU — can be shared and
// replayed exactly.
func (c Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// ConfigFromJSON reads a configuration written by WriteJSON. Fields absent
// from the document keep the calibrated defaults, so a config file only
// needs the knobs it changes.
func ConfigFromJSON(r io.Reader) (Config, error) {
	cfg := DefaultConfig()
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("machine: bad config: %w", err)
	}
	if err := cfg.Topology.Validate(); err != nil {
		return Config{}, err
	}
	if cfg.MaxVirtualSeconds <= 0 {
		return Config{}, fmt.Errorf("machine: MaxVirtualSeconds must be positive")
	}
	if err := cfg.checkRates(); err != nil {
		return Config{}, err
	}
	if cfg.Faults != nil {
		// Normalize here so two spellings of the same fault plan produce the
		// same canonical Config (and thus the same pmemd cache key).
		plan, err := cfg.Faults.Normalize()
		if err != nil {
			return Config{}, err
		}
		cfg.Faults = plan
	}
	return cfg, nil
}

// MinBytesPerSec is the smallest device rate, in bytes per second, that
// ConfigFromJSON accepts for the *BytesPerSec leaves: three orders of
// magnitude below any calibrated device. Much slower rates push the serving
// co-simulation past its event budget and round bandwidths to nothing, a
// failure of the request rather than an answer.
const MinBytesPerSec = 1e6

// checkRates rejects a device rate below MinBytesPerSec or an access
// granularity below one byte, and any infinite value. A zero rate stalls
// the engine, a negative one runs to a wrong answer, and a tiny one
// exhausts the event loop, so each must fail before any run starts.
func (c *Config) checkRates() error {
	rates := []struct {
		name   string
		v, min float64
	}{
		{"PMEM.MediaReadBytesPerSec", c.PMEM.MediaReadBytesPerSec, MinBytesPerSec},
		{"PMEM.MediaWriteBytesPerSec", c.PMEM.MediaWriteBytesPerSec, MinBytesPerSec},
		{"DRAM.SocketReadBytesPerSec", c.DRAM.SocketReadBytesPerSec, MinBytesPerSec},
		{"DRAM.SocketWriteBytesPerSec", c.DRAM.SocketWriteBytesPerSec, MinBytesPerSec},
		{"DRAM.SystemReadBytesPerSec", c.DRAM.SystemReadBytesPerSec, MinBytesPerSec},
		{"UPI.RawBytesPerSecPerDir", c.UPI.RawBytesPerSecPerDir, MinBytesPerSec},
		{"UPI.ColdReadCapBytesPerSec", c.UPI.ColdReadCapBytesPerSec, MinBytesPerSec},
		{"SSD.SeqReadBytesPerSec", c.SSD.SeqReadBytesPerSec, MinBytesPerSec},
		{"SSD.SeqWriteBytesPerSec", c.SSD.SeqWriteBytesPerSec, MinBytesPerSec},
		{"SSD.RandReadBytesPerSec", c.SSD.RandReadBytesPerSec, MinBytesPerSec},
		{"SSD.RandWriteBytesPerSec", c.SSD.RandWriteBytesPerSec, MinBytesPerSec},
		{"PMEM.Granularity", float64(c.PMEM.Granularity), 1},
	}
	for _, r := range rates {
		if !(r.v >= r.min) || math.IsInf(r.v, 1) {
			return fmt.Errorf("machine: %s must be finite and at least %g, got %g", r.name, r.min, r.v)
		}
	}
	return nil
}
