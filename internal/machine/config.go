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

// checkRates rejects a device rate or access granularity that is not a
// positive finite number. A zero rate stalls the engine and a negative one
// runs to a wrong answer, so either must fail before any run starts.
func (c *Config) checkRates() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"PMEM.MediaReadBytesPerSec", c.PMEM.MediaReadBytesPerSec},
		{"PMEM.MediaWriteBytesPerSec", c.PMEM.MediaWriteBytesPerSec},
		{"DRAM.SocketReadBytesPerSec", c.DRAM.SocketReadBytesPerSec},
		{"DRAM.SocketWriteBytesPerSec", c.DRAM.SocketWriteBytesPerSec},
		{"DRAM.SystemReadBytesPerSec", c.DRAM.SystemReadBytesPerSec},
		{"UPI.RawBytesPerSecPerDir", c.UPI.RawBytesPerSecPerDir},
		{"UPI.ColdReadCapBytesPerSec", c.UPI.ColdReadCapBytesPerSec},
		{"SSD.SeqReadBytesPerSec", c.SSD.SeqReadBytesPerSec},
		{"SSD.SeqWriteBytesPerSec", c.SSD.SeqWriteBytesPerSec},
		{"SSD.RandReadBytesPerSec", c.SSD.RandReadBytesPerSec},
		{"SSD.RandWriteBytesPerSec", c.SSD.RandWriteBytesPerSec},
		{"PMEM.Granularity", float64(c.PMEM.Granularity)},
	}
	for _, r := range rates {
		if !(r.v > 0) || math.IsInf(r.v, 1) {
			return fmt.Errorf("machine: %s must be positive and finite, got %g", r.name, r.v)
		}
	}
	return nil
}
