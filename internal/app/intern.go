package app

// Interned-ID view of the application, built once at Builder seal time
// (finalize). A datum's ID is its index into App.Data, a context group's
// its order of first use among the kernels; the tables below
// give the hot paths (extract, the schedulers, verify) slice-indexed
// access to the dataflow so the inner loops never hash a string.

// internIDs builds the dense-ID tables. Called from finalize after the
// name-keyed maps are validated, so every name resolves.
func (a *App) internIDs() {
	a.ctxGroupOf, a.ctxGroups = a.internCtxGroups()
	a.kernelIn = make([][]int32, len(a.Kernels))
	a.kernelOut = make([][]int32, len(a.Kernels))
	a.producerID = make([]int32, len(a.Data))
	a.lastUseID = make([]int32, len(a.Data))
	for i := range a.Data {
		a.producerID[i] = -1
		a.lastUseID[i] = -1
	}
	for ki, k := range a.Kernels {
		in := make([]int32, len(k.Inputs))
		for j, name := range k.Inputs {
			in[j] = int32(a.dataIdx[name])
		}
		a.kernelIn[ki] = in
		out := make([]int32, len(k.Outputs))
		for j, name := range k.Outputs {
			out[j] = int32(a.dataIdx[name])
		}
		a.kernelOut[ki] = out
	}
	for name, ki := range a.producer {
		a.producerID[a.dataIdx[name]] = int32(ki)
	}
	for name, cs := range a.consumers {
		if len(cs) > 0 {
			a.lastUseID[a.dataIdx[name]] = int32(cs[len(cs)-1])
		}
	}
}

// internCtxGroups numbers the kernels' context groups densely in order of
// first use: of[ki] is kernel ki's group ID, names[g] group g's name.
func (a *App) internCtxGroups() (of []int32, names []string) {
	of = make([]int32, len(a.Kernels))
	ids := make(map[string]int32, len(a.Kernels))
	for ki := range a.Kernels {
		g := a.Kernels[ki].CtxGroup()
		id, ok := ids[g]
		if !ok {
			id = int32(len(names))
			ids[g] = id
			names = append(names, g)
		}
		of[ki] = id
	}
	return of, names
}

// CtxGroups returns the kernels' context groups as dense IDs: of[ki] is
// kernel ki's group ID and names[g] the name of group g, numbered in
// order of first use. A finalized app returns the tables Finalize built,
// which must not be modified; any other app builds them per call.
func (a *App) CtxGroups() (of []int32, names []string) {
	if a.ctxGroupOf == nil {
		return a.internCtxGroups()
	}
	return a.ctxGroupOf, a.ctxGroups
}

// NumData returns the number of data objects (the ID space is [0, NumData)).
func (a *App) NumData() int { return len(a.Data) }

// Finalized reports whether the interned-ID tables exist, i.e. the app
// went through Builder.Build or Finalize. The ID accessors below must
// only be used on finalized apps.
func (a *App) Finalized() bool { return a.kernelIn != nil }

// DatumID returns the dense ID of the named datum, or -1 if unknown.
func (a *App) DatumID(name string) int {
	i, ok := a.dataIdx[name]
	if !ok {
		return -1
	}
	return i
}

// DatumName returns the name of the datum with the given ID.
func (a *App) DatumName(id int32) string { return a.Data[id].Name }

// SizeByID returns the per-iteration size of the datum with the given ID.
func (a *App) SizeByID(id int32) int { return a.Data[id].Size }

// IsStreamedID reports whether the datum with the given ID is loaded just
// in time (see Datum.Streamed).
func (a *App) IsStreamedID(id int32) bool { return a.Data[id].Streamed }

// ProducerID returns the index of the kernel producing the datum with the
// given ID, or -1 for external inputs.
func (a *App) ProducerID(id int32) int32 { return a.producerID[id] }

// LastUseID returns the index of the last kernel reading the datum with
// the given ID, or -1 if nothing consumes it.
func (a *App) LastUseID(id int32) int32 { return a.lastUseID[id] }

// KernelInputIDs returns kernel ki's input datum IDs in declared order.
// The returned slice must not be modified.
func (a *App) KernelInputIDs(ki int) []int32 { return a.kernelIn[ki] }

// KernelOutputIDs returns kernel ki's output datum IDs in declared order.
// The returned slice must not be modified.
func (a *App) KernelOutputIDs(ki int) []int32 { return a.kernelOut[ki] }
