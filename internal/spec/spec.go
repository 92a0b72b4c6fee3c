// Package spec parses the JSON application format the cds command-line
// tool consumes: data objects, kernels, a cluster decomposition and
// optional machine overrides.
//
//	{
//	  "name": "pipe", "iterations": 8,
//	  "arch": {"fbSetBytes": 2048, "cmWords": 512},
//	  "data": [
//	    {"name": "in", "size": 100},
//	    {"name": "tile", "size": 64, "streamed": true},
//	    {"name": "out", "size": 50, "final": true}
//	  ],
//	  "kernels": [
//	    {"name": "k1", "contextWords": 64, "computeCycles": 500,
//	     "inputs": ["in"], "outputs": ["out"]}
//	  ],
//	  "clusters": [1]
//	}
package spec

import (
	"encoding/json"
	"fmt"
	"strconv"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/scherr"
)

// Arch overrides machine parameters; zero fields keep the M1 defaults.
type Arch struct {
	FBSetBytes int `json:"fbSetBytes"`
	CMWords    int `json:"cmWords"`
}

// Datum describes one data object.
type Datum struct {
	Name     string `json:"name"`
	Size     int    `json:"size"`
	Final    bool   `json:"final"`
	Streamed bool   `json:"streamed"`
}

// Kernel describes one kernel.
type Kernel struct {
	Name          string   `json:"name"`
	ContextWords  int      `json:"contextWords"`
	ComputeCycles int      `json:"computeCycles"`
	Inputs        []string `json:"inputs"`
	Outputs       []string `json:"outputs"`
	ContextGroup  string   `json:"contextGroup"`
}

// Spec is the top-level document.
type Spec struct {
	Name       string   `json:"name"`
	Iterations int      `json:"iterations"`
	Arch       *Arch    `json:"arch"`
	Data       []Datum  `json:"data"`
	Kernels    []Kernel `json:"kernels"`
	Clusters   []int    `json:"clusters"`
}

// Parse decodes and validates a JSON spec, returning the partitioned
// application and the machine to run it on. All rejections — malformed
// JSON included — match scherr.ErrInvalidSpec under errors.Is, and
// validation errors name the offending field by its JSON path (e.g.
// "kernels[3].contextWords").
func Parse(raw []byte) (*app.Partition, arch.Params, error) {
	var sp Spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, arch.Params{}, fmt.Errorf("spec: %w: %w", scherr.ErrInvalidSpec, err)
	}
	return sp.Build()
}

// invalid builds a field-path validation error: "spec: <path>: <detail>",
// matching scherr.ErrInvalidSpec.
func invalid(path, format string, args ...any) error {
	return fmt.Errorf("spec: %w: %s: %s", scherr.ErrInvalidSpec, path, fmt.Sprintf(format, args...))
}

// elem formats an indexed field path ("data[3]"). Only error branches
// call it — Validate runs on every streaming replan, so the success
// path must not format path strings per element.
func elem(field string, i int) string {
	return field + "[" + strconv.Itoa(i) + "]"
}

// Validate checks the decoded document field by field, before any
// application semantics run, so a bad spec is reported by the JSON path
// the author has to fix rather than by an internal app-model name.
func (sp *Spec) Validate() error {
	if sp.Iterations < 1 {
		return invalid("iterations", "must be >= 1, got %d", sp.Iterations)
	}
	// Effective machine limits: overrides when declared, M1 defaults
	// otherwise (mirroring Build). A datum that cannot fit one Frame
	// Buffer set can never be scheduled, so it is a spec error, not a
	// scheduling outcome.
	fbSet := arch.M1().FBSetBytes
	if sp.Arch != nil && sp.Arch.FBSetBytes > 0 {
		fbSet = sp.Arch.FBSetBytes
	}
	dataNames := make(map[string]int, len(sp.Data))
	for i, d := range sp.Data {
		if d.Name == "" {
			return invalid(elem("data", i)+".name", "must not be empty")
		}
		if d.Size <= 0 {
			return invalid(elem("data", i)+".size", "must be positive, got %d", d.Size)
		}
		if d.Size > fbSet {
			return invalid(elem("data", i)+".size", "%d bytes exceeds the %d-byte frame-buffer set (%q cannot ever be resident)", d.Size, fbSet, d.Name)
		}
		if prev, dup := dataNames[d.Name]; dup {
			return invalid(elem("data", i)+".name", "duplicates data[%d] (%q)", prev, d.Name)
		}
		dataNames[d.Name] = i
	}
	if len(sp.Kernels) == 0 {
		return invalid("kernels", "must list at least one kernel")
	}
	kernelNames := make(map[string]int, len(sp.Kernels))
	for i, k := range sp.Kernels {
		if k.Name == "" {
			return invalid(elem("kernels", i)+".name", "must not be empty")
		}
		if prev, dup := kernelNames[k.Name]; dup {
			return invalid(elem("kernels", i)+".name", "duplicates kernels[%d] (%q)", prev, k.Name)
		}
		kernelNames[k.Name] = i
		if k.ContextWords <= 0 {
			return invalid(elem("kernels", i)+".contextWords", "must be positive, got %d", k.ContextWords)
		}
		if k.ComputeCycles <= 0 {
			return invalid(elem("kernels", i)+".computeCycles", "must be positive, got %d", k.ComputeCycles)
		}
		seenIn := make(map[string]int, len(k.Inputs))
		for j, in := range k.Inputs {
			if _, ok := dataNames[in]; !ok {
				return invalid(elem(elem("kernels", i)+".inputs", j), "references undeclared datum %q", in)
			}
			if prev, dup := seenIn[in]; dup {
				return invalid(elem(elem("kernels", i)+".inputs", j), "duplicates inputs[%d] (%q)", prev, in)
			}
			seenIn[in] = j
		}
		seenOut := make(map[string]int, len(k.Outputs))
		for j, out := range k.Outputs {
			if _, ok := dataNames[out]; !ok {
				return invalid(elem(elem("kernels", i)+".outputs", j), "references undeclared datum %q", out)
			}
			if prev, dup := seenOut[out]; dup {
				return invalid(elem(elem("kernels", i)+".outputs", j), "duplicates outputs[%d] (%q)", prev, out)
			}
			seenOut[out] = j
			if _, self := seenIn[out]; self {
				return invalid(elem(elem("kernels", i)+".outputs", j), "kernel %q both reads and writes %q (self-dependency)", k.Name, out)
			}
		}
	}
	if len(sp.Clusters) == 0 {
		return invalid("clusters", "must list at least one cluster size")
	}
	total := 0
	for i, n := range sp.Clusters {
		if n < 1 {
			return invalid(elem("clusters", i), "must be >= 1, got %d", n)
		}
		total += n
	}
	if total != len(sp.Kernels) {
		return invalid("clusters", "sizes sum to %d, but the spec declares %d kernels", total, len(sp.Kernels))
	}
	if sp.Arch != nil {
		if sp.Arch.FBSetBytes < 0 {
			return invalid("arch.fbSetBytes", "must not be negative, got %d", sp.Arch.FBSetBytes)
		}
		if sp.Arch.CMWords < 0 {
			return invalid("arch.cmWords", "must not be negative, got %d", sp.Arch.CMWords)
		}
	}
	return sp.checkCycleBound(fbSet, dataNames)
}

// maxCycles bounds every cycle count a valid spec lets the model form. At
// 2^53 each count stays exact as a float64, which the improvement
// percentages and JSON readers use, and the int sums the schedulers and
// the simulator take have 2^10 of headroom before they could wrap.
const maxCycles = 1 << 53

// checkCycleBound rejects a spec whose largest cycle count could pass
// maxCycles. That count is the iterations times one iteration's worst
// case: every kernel computes, reloads all its contexts in one transfer
// and moves each of its inputs and outputs in a transfer of its own. No
// scheduler does more (Basic, which does the most, reloads every context
// and loads every external input once per kernel), and a transfer of n
// bytes or context bytes never takes more than the DMA set-up plus n
// cycles. The Frame Buffer set and the Context Memory bound their own
// transfers too. Each step is checked before it is taken, so nothing
// here wraps either; the error names the field whose term passes the
// bound first.
func (sp *Spec) checkCycleBound(fbSet int, dataNames map[string]int) error {
	pa := arch.M1()
	cm := pa.CMWords
	if sp.Arch != nil && sp.Arch.CMWords > 0 {
		cm = sp.Arch.CMWords
	}
	setup := pa.DMASetupCycles
	if fbSet > maxCycles-setup {
		return invalid("arch.fbSetBytes", "%d bytes is over the %d-cycle bound on one transfer", fbSet, maxCycles)
	}
	if cm > (maxCycles-setup)/pa.CtxWordBytes {
		return invalid("arch.cmWords", "%d words is over the %d-cycle bound on one transfer", cm, maxCycles)
	}
	// per is one iteration's cycles so far; add adds n*scale to it.
	per := 0
	add := func(n, scale int) bool {
		if n > (maxCycles-per)/scale {
			return false
		}
		per += n * scale
		return true
	}
	for i, k := range sp.Kernels {
		if !add(k.ComputeCycles, 1) {
			return invalid(elem("kernels", i)+".computeCycles", "%d cycles takes one iteration over %d cycles", k.ComputeCycles, maxCycles)
		}
		if !add(setup, 1) || !add(k.ContextWords, pa.CtxWordBytes) {
			return invalid(elem("kernels", i)+".contextWords", "%d words takes one iteration over %d cycles", k.ContextWords, maxCycles)
		}
		for _, names := range [][]string{k.Inputs, k.Outputs} {
			for _, name := range names {
				d := dataNames[name]
				if !add(setup, 1) || !add(sp.Data[d].Size, 1) {
					return invalid(elem("data", d)+".size", "%d bytes takes one iteration over %d cycles", sp.Data[d].Size, maxCycles)
				}
			}
		}
	}
	if sp.Iterations > maxCycles/per {
		return invalid("iterations", "%d iterations of up to %d cycles each pass %d cycles", sp.Iterations, per, maxCycles)
	}
	return nil
}

// Build materializes an already-decoded spec. Validation failures match
// scherr.ErrInvalidSpec and name the offending field path.
func (sp *Spec) Build() (*app.Partition, arch.Params, error) {
	if err := sp.Validate(); err != nil {
		return nil, arch.Params{}, err
	}
	a := &app.App{Name: sp.Name, Iterations: sp.Iterations}
	for _, d := range sp.Data {
		a.Data = append(a.Data, app.Datum{
			Name: d.Name, Size: d.Size, Final: d.Final, Streamed: d.Streamed,
		})
	}
	for _, k := range sp.Kernels {
		a.Kernels = append(a.Kernels, app.Kernel{
			Name:          k.Name,
			ContextWords:  k.ContextWords,
			ComputeCycles: k.ComputeCycles,
			Inputs:        k.Inputs,
			Outputs:       k.Outputs,
			ContextGroup:  k.ContextGroup,
		})
	}
	if err := a.Finalize(); err != nil {
		// Semantic violations the field checks cannot see (dataflow
		// ordering, double producers, ...) still class as invalid specs.
		return nil, arch.Params{}, fmt.Errorf("spec %q: %w: %w", sp.Name, scherr.ErrInvalidSpec, err)
	}

	pa := arch.M1()
	if sp.Arch != nil {
		if sp.Arch.FBSetBytes > 0 {
			pa.FBSetBytes = sp.Arch.FBSetBytes
		}
		if sp.Arch.CMWords > 0 {
			pa.CMWords = sp.Arch.CMWords
		}
	}
	if err := pa.Validate(); err != nil {
		return nil, arch.Params{}, fmt.Errorf("spec %q: %w: %w", sp.Name, scherr.ErrInvalidSpec, err)
	}
	part, err := app.NewPartition(a, pa.FBSets, sp.Clusters...)
	if err != nil {
		return nil, arch.Params{}, fmt.Errorf("spec %q: %w: %w", sp.Name, scherr.ErrInvalidSpec, err)
	}
	return part, pa, nil
}

// FromPartition converts a partitioned application (plus its machine)
// back into a Spec, the inverse of Build. cmd/experiments -dump uses it
// to export the built-in paper workloads as editable JSON.
func FromPartition(part *app.Partition, pa arch.Params) *Spec {
	sp := &Spec{
		Name:       part.App.Name,
		Iterations: part.App.Iterations,
		Arch:       &Arch{FBSetBytes: pa.FBSetBytes, CMWords: pa.CMWords},
	}
	for _, d := range part.App.Data {
		sp.Data = append(sp.Data, Datum{
			Name: d.Name, Size: d.Size, Final: d.Final, Streamed: d.Streamed,
		})
	}
	for _, k := range part.App.Kernels {
		sp.Kernels = append(sp.Kernels, Kernel{
			Name:          k.Name,
			ContextWords:  k.ContextWords,
			ComputeCycles: k.ComputeCycles,
			Inputs:        k.Inputs,
			Outputs:       k.Outputs,
			ContextGroup:  k.ContextGroup,
		})
	}
	for _, c := range part.Clusters {
		sp.Clusters = append(sp.Clusters, len(c.Kernels))
	}
	return sp
}

// Marshal renders a spec as indented JSON.
func (sp *Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(sp, "", "  ")
}

// PruneOrphanData removes data no kernel references. A datum that is
// neither produced nor consumed fails validation, so programmatic spec
// producers (the corpus generator, the delta minimizer) call this after
// surgery that may leave declarations behind.
func (sp *Spec) PruneOrphanData() {
	used := make(map[string]bool, len(sp.Data))
	for _, k := range sp.Kernels {
		for _, n := range k.Inputs {
			used[n] = true
		}
		for _, n := range k.Outputs {
			used[n] = true
		}
	}
	kept := sp.Data[:0]
	for _, d := range sp.Data {
		if used[d.Name] {
			kept = append(kept, d)
		}
	}
	sp.Data = kept
}
