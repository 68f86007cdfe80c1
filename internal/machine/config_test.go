package machine

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := DefaultConfig()
	orig.PrefetcherEnabled = false
	orig.Topology.Sockets = 4
	orig.PMEM.MediaReadBytesPerSec = 9e9

	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ConfigFromJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PrefetcherEnabled != false || got.Topology.Sockets != 4 ||
		got.PMEM.MediaReadBytesPerSec != 9e9 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	// Untouched calibration survives.
	if got.UPI.RawBytesPerSecPerDir != orig.UPI.RawBytesPerSecPerDir {
		t.Error("UPI calibration lost")
	}
}

func TestConfigFromJSONPartial(t *testing.T) {
	// A partial document overrides only what it names.
	in := `{"PrefetcherEnabled": false}`
	got, err := ConfigFromJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.PrefetcherEnabled {
		t.Error("override ignored")
	}
	if got.PMEM.MediaReadBytesPerSec != DefaultConfig().PMEM.MediaReadBytesPerSec {
		t.Error("defaults lost on partial config")
	}
}

func TestConfigFromJSONRejectsBad(t *testing.T) {
	cases := []string{
		`{"NotAField": 1}`,
		`{"Topology": {"Sockets": 0}}`,
		`{"MaxVirtualSeconds": -5}`,
		`{broken`,
	}
	for _, in := range cases {
		if _, err := ConfigFromJSON(strings.NewReader(in)); err == nil {
			t.Errorf("ConfigFromJSON(%q) succeeded", in)
		}
	}
}

// TestConfigFromJSONRejectsBadRates: every device rate must be at least
// MinBytesPerSec and the PMEM access granularity positive; the error names
// the field. A rate at the floor is accepted.
func TestConfigFromJSONRejectsBadRates(t *testing.T) {
	fields := map[string][]string{
		"PMEM": {"MediaReadBytesPerSec", "MediaWriteBytesPerSec", "Granularity"},
		"DRAM": {"SocketReadBytesPerSec", "SocketWriteBytesPerSec", "SystemReadBytesPerSec"},
		"UPI":  {"RawBytesPerSecPerDir", "ColdReadCapBytesPerSec"},
		"SSD":  {"SeqReadBytesPerSec", "SeqWriteBytesPerSec", "RandReadBytesPerSec", "RandWriteBytesPerSec"},
	}
	n := 0
	for dev, leaves := range fields {
		for _, leaf := range leaves {
			n++
			bad := []string{"0", "-1"}
			if leaf != "Granularity" {
				bad = append(bad, "1", "1e-300", "999999.9")
			}
			for _, v := range bad {
				in := fmt.Sprintf(`{%q: {%q: %s}}`, dev, leaf, v)
				_, err := ConfigFromJSON(strings.NewReader(in))
				if err == nil || !strings.Contains(err.Error(), dev+"."+leaf) {
					t.Errorf("ConfigFromJSON(%s): error %v, want one naming %s.%s", in, err, dev, leaf)
				}
			}
			in := fmt.Sprintf(`{%q: {%q: %g}}`, dev, leaf, MinBytesPerSec)
			if leaf == "Granularity" {
				in = fmt.Sprintf(`{%q: {%q: 1}}`, dev, leaf)
			}
			if _, err := ConfigFromJSON(strings.NewReader(in)); err != nil {
				t.Errorf("ConfigFromJSON(%s): %v", in, err)
			}
		}
	}
	if n != 12 {
		t.Errorf("%d fields checked, want 12", n)
	}
	cfg := DefaultConfig()
	cfg.SSD.RandReadBytesPerSec = math.Inf(1)
	if err := cfg.checkRates(); err == nil || !strings.Contains(err.Error(), "SSD.RandReadBytesPerSec") {
		t.Errorf("infinite rate: error %v, want one naming SSD.RandReadBytesPerSec", err)
	}
}

func TestConfigJSONUsable(t *testing.T) {
	var buf bytes.Buffer
	if err := DefaultConfig().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	cfg, err := ConfigFromJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err != nil {
		t.Errorf("round-tripped config unusable: %v", err)
	}
}
