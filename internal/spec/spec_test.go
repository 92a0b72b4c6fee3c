package spec_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"cds/internal/scherr"
	"cds/internal/spec"
	"cds/internal/workloads"
)

const goodSpec = `{
  "name": "pipe", "iterations": 8,
  "arch": {"fbSetBytes": 2048, "cmWords": 256},
  "data": [
    {"name": "in", "size": 100},
    {"name": "tile", "size": 64, "streamed": true},
    {"name": "mid", "size": 40},
    {"name": "out", "size": 50, "final": true}
  ],
  "kernels": [
    {"name": "k1", "contextWords": 64, "computeCycles": 500,
     "inputs": ["in", "tile"], "outputs": ["mid"]},
    {"name": "k2", "contextWords": 64, "computeCycles": 300,
     "inputs": ["mid"], "outputs": ["out"], "contextGroup": "k1"}
  ],
  "clusters": [1, 1]
}`

func TestParseGoodSpec(t *testing.T) {
	part, pa, err := spec.Parse([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	if part.App.Name != "pipe" || part.App.Iterations != 8 {
		t.Errorf("app = %s/%d", part.App.Name, part.App.Iterations)
	}
	if len(part.Clusters) != 2 {
		t.Errorf("clusters = %d, want 2", len(part.Clusters))
	}
	if pa.FBSetBytes != 2048 || pa.CMWords != 256 {
		t.Errorf("arch overrides lost: %+v", pa)
	}
	// Flags survive.
	if !part.App.IsStreamed("tile") {
		t.Error("streamed flag lost")
	}
	d, _ := part.App.DatumByName("out")
	if !d.Final {
		t.Error("final flag lost")
	}
	ki, _ := part.App.KernelIndex("k2")
	if part.App.Kernels[ki].CtxGroup() != "k1" {
		t.Error("context group lost")
	}
}

func TestParseDefaultsArch(t *testing.T) {
	raw := strings.Replace(goodSpec, `"arch": {"fbSetBytes": 2048, "cmWords": 256},`, "", 1)
	_, pa, err := spec.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if pa.Name != "M1" {
		t.Errorf("arch = %+v, want M1 defaults", pa)
	}
}

// TestParseErrors pins the validation contract: every rejection matches
// scherr.ErrInvalidSpec under errors.Is and names the offending field by
// its JSON path, so the author of a hand-written spec knows exactly what
// to fix.
func TestParseErrors(t *testing.T) {
	tests := []struct {
		name, old, new, wantSub string
	}{
		{"bad json", goodSpec, "{", "spec"},
		{"zero iterations", `"iterations": 8`, `"iterations": 0`, "iterations"},
		{"empty datum name", `{"name": "tile", "size": 64, "streamed": true}`,
			`{"name": "", "size": 64, "streamed": true}`, "data[1].name"},
		{"bad datum size", `{"name": "mid", "size": 40}`, `{"name": "mid", "size": 0}`, "data[2].size"},
		{"duplicate datum", `{"name": "mid", "size": 40}`, `{"name": "in", "size": 40}`, "data[2].name"},
		{"bad context words", `"name": "k2", "contextWords": 64`, `"name": "k2", "contextWords": -3`,
			"kernels[1].contextWords"},
		{"bad compute cycles", `"computeCycles": 300`, `"computeCycles": 0`, "kernels[1].computeCycles"},
		{"unknown input", `"inputs": ["in", "tile"]`, `"inputs": ["ghost"]`, "kernels[0].inputs[0]"},
		{"unknown output", `"outputs": ["out"]`, `"outputs": ["ghost"]`, "kernels[1].outputs[0]"},
		{"duplicate kernel", `"name": "k2", "contextWords"`, `"name": "k1", "contextWords"`, "kernels[1].name"},
		{"cluster sum off", `"clusters": [1, 1]`, `"clusters": [1]`, "clusters"},
		{"zero cluster", `"clusters": [1, 1]`, `"clusters": [0, 2]`, "clusters[0]"},
		{"no clusters", `"clusters": [1, 1]`, `"clusters": []`, "clusters"},
		{"negative FB", `"fbSetBytes": 2048`, `"fbSetBytes": -1`, "arch.fbSetBytes"},
		{"duplicate input", `"inputs": ["in", "tile"]`, `"inputs": ["in", "in"]`, "kernels[0].inputs[1]"},
		{"duplicate output", `"outputs": ["mid"]`, `"outputs": ["mid", "mid"]`, "kernels[0].outputs[1]"},
		{"self dependency", `"inputs": ["mid"], "outputs": ["out"]`,
			`"inputs": ["mid"], "outputs": ["mid"]`, "kernels[1].outputs[0]"},
		{"datum exceeds FB set", `{"name": "in", "size": 100}`, `{"name": "in", "size": 4096}`, "data[0].size"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			raw := strings.Replace(goodSpec, tt.old, tt.new, 1)
			if raw == goodSpec {
				t.Fatalf("mutation %q did not apply", tt.old)
			}
			_, _, err := spec.Parse([]byte(raw))
			if err == nil {
				t.Fatal("Parse accepted a broken spec")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not mention %q", err, tt.wantSub)
			}
			if !errors.Is(err, scherr.ErrInvalidSpec) {
				t.Errorf("error %q does not match scherr.ErrInvalidSpec", err)
			}
		})
	}
}

// TestOversizeDatumAgainstDefaultArch: the frame-buffer footprint check
// applies against the M1 default when the spec declares no arch block —
// a datum that cannot fit one FB set is a spec error even before any
// scheduling runs.
func TestOversizeDatumAgainstDefaultArch(t *testing.T) {
	raw := `{"name":"x","iterations":1,
	  "data":[{"name":"d","size":99999}],
	  "kernels":[{"name":"k","contextWords":1,"computeCycles":1,"inputs":["d"]}],
	  "clusters":[1]}`
	_, _, err := spec.Parse([]byte(raw))
	if err == nil {
		t.Fatal("Parse accepted a datum bigger than the default frame-buffer set")
	}
	if !strings.Contains(err.Error(), "data[0].size") {
		t.Errorf("error %q does not name data[0].size", err)
	}
	if !errors.Is(err, scherr.ErrInvalidSpec) {
		t.Errorf("error %q does not match scherr.ErrInvalidSpec", err)
	}
}

// TestSemanticErrorsStayTyped covers rejections only app.Finalize can
// see (dataflow ordering, double producers): they keep the taxonomy
// class even though they have no single field path.
func TestSemanticErrorsStayTyped(t *testing.T) {
	raw := strings.Replace(goodSpec, `"outputs": ["out"], "contextGroup": "k1"`,
		`"outputs": ["mid"], "contextGroup": "k1"`, 1)
	_, _, err := spec.Parse([]byte(raw))
	if err == nil {
		t.Fatal("double producer accepted")
	}
	if !errors.Is(err, scherr.ErrInvalidSpec) {
		t.Errorf("semantic rejection %q lost the ErrInvalidSpec class", err)
	}
}

// cycleSpec is a one-kernel spec with the given iterations and compute
// cycles per iteration: one 4-byte input, one context word, M1 DMA.
func cycleSpec(iterations, computeCycles int) string {
	return fmt.Sprintf(`{"name":"c","iterations":%d,
	  "data":[{"name":"d","size":4}],
	  "kernels":[{"name":"k","contextWords":1,"computeCycles":%d,"inputs":["d"]}],
	  "clusters":[1]}`, iterations, computeCycles)
}

// TestParseRejectsCycleOverflow: a spec whose cycle counts could wrap is
// an invalid spec, named by the field that passes the bound. Compute
// cycles of 2^60 and 2^62 over 8 iterations once parsed, and the Basic
// schedule's cycle count wrapped. One iteration of cycleSpec(n, 2^20-16)
// costs at most 2^20 cycles, so 2^33 iterations meet the 2^53 bound
// exactly and one more passes it.
func TestParseRejectsCycleOverflow(t *testing.T) {
	tests := []struct {
		name, raw, wantPath string
	}{
		{"compute 2^60", cycleSpec(8, 1<<60), "kernels[0].computeCycles"},
		{"compute 2^62", cycleSpec(8, 1<<62), "kernels[0].computeCycles"},
		{"iterations", cycleSpec(1<<33+1, 1<<20-16), "iterations"},
		{"context words", strings.Replace(cycleSpec(8, 1), `"contextWords":1`, `"contextWords":4611686018427387904`, 1),
			"kernels[0].contextWords"},
		{"datum size", strings.Replace(strings.Replace(goodSpec, `"fbSetBytes": 2048`, `"fbSetBytes": 4503599627370496`, 1),
			`{"name": "mid", "size": 40}`, `{"name": "mid", "size": 4503599627370496}`, 1), "data[2].size"},
		{"fb set", strings.Replace(goodSpec, `"fbSetBytes": 2048`, `"fbSetBytes": 4611686018427387904`, 1), "arch.fbSetBytes"},
		{"cm words", strings.Replace(goodSpec, `"cmWords": 256`, `"cmWords": 4611686018427387904`, 1), "arch.cmWords"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := spec.Parse([]byte(tt.raw))
			if !errors.Is(err, scherr.ErrInvalidSpec) {
				t.Fatalf("err = %v, want scherr.ErrInvalidSpec", err)
			}
			if !strings.Contains(err.Error(), "spec: "+scherr.ErrInvalidSpec.Error()+": "+tt.wantPath+":") {
				t.Errorf("error %q does not name %s", err, tt.wantPath)
			}
		})
	}
	if _, _, err := spec.Parse([]byte(cycleSpec(1<<33, 1<<20-16))); err != nil {
		t.Errorf("a spec exactly at the cycle bound was rejected: %v", err)
	}
}

// TestValidateAcceptsCorpus: the cycle bound leaves every generated and
// regression spec valid.
func TestValidateAcceptsCorpus(t *testing.T) {
	for i := 0; i < 544; i++ {
		if err := workloads.GenSpec(1, i).Validate(); err != nil {
			t.Errorf("GenSpec(1, %d): %v", i, err)
		}
	}
	for _, sp := range workloads.Regressions() {
		if err := sp.Validate(); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
	}
}

func TestValidateAcceptsAllPaperWorkloads(t *testing.T) {
	for _, e := range workloads.All() {
		if err := spec.FromPartition(e.Part, e.Arch).Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

func TestParsedSpecSchedules(t *testing.T) {
	part, pa, err := spec.Parse([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	// The parsed app must be schedulable end to end (smoke).
	if part.App.TotalDataBytes() != 254 {
		t.Errorf("TDS = %d, want 254", part.App.TotalDataBytes())
	}
	if pa.FBSets != 2 {
		t.Errorf("FBSets = %d", pa.FBSets)
	}
}

func TestParseShippedExampleSpec(t *testing.T) {
	raw, err := os.ReadFile("../../examples/specs/radar.json")
	if err != nil {
		t.Fatal(err)
	}
	part, pa, err := spec.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if part.App.Name != "radar" || len(part.Clusters) != 3 {
		t.Errorf("radar spec parsed wrong: %s / %d clusters", part.App.Name, len(part.Clusters))
	}
	if pa.FBSetBytes != 1024 {
		t.Errorf("FB override lost: %d", pa.FBSetBytes)
	}
}

func TestFromPartitionRoundTrip(t *testing.T) {
	part, pa, err := spec.Parse([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.FromPartition(part, pa)
	raw, err := sp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	part2, pa2, err := spec.Parse(raw)
	if err != nil {
		t.Fatalf("%v\njson:\n%s", err, raw)
	}
	if part2.App.TotalDataBytes() != part.App.TotalDataBytes() ||
		part2.App.NumKernels() != part.App.NumKernels() ||
		len(part2.Clusters) != len(part.Clusters) {
		t.Error("round trip changed the application")
	}
	if pa2.FBSetBytes != pa.FBSetBytes || pa2.CMWords != pa.CMWords {
		t.Error("round trip changed the machine")
	}
	if !part2.App.IsStreamed("tile") {
		t.Error("streamed flag lost in round trip")
	}
}

func TestDumpAllPaperWorkloads(t *testing.T) {
	for _, e := range workloads.All() {
		sp := spec.FromPartition(e.Part, e.Arch)
		raw, err := sp.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		part, _, err := spec.Parse(raw)
		if err != nil {
			t.Fatalf("%s: re-parse: %v", e.Name, err)
		}
		if part.App.TotalDataBytes() != e.Part.App.TotalDataBytes() {
			t.Errorf("%s: TDS changed in export round trip", e.Name)
		}
	}
}
