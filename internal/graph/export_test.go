package graph

// DescOf is a TaskDesc with deps grouped by type, as Submit groups them,
// for the external tests that generate dependence streams as []Dep.
func DescOf(label string, deps []Dep) TaskDesc {
	d, _ := groupDeps(nil, deps)
	d.Label = label
	return d
}

// DepsOf is d's declarations as a []Dep, in the order discovery walks
// them, for the verifier and for failure messages.
func DepsOf(d TaskDesc) []Dep {
	var deps []Dep
	for typ, keys := range [...][]Key{In: d.In, Out: d.Out, InOut: d.InOut, InOutSet: d.InOutSet} {
		for _, k := range keys {
			deps = append(deps, Dep{Key: k, Type: DepType(typ)})
		}
	}
	return deps
}

// StepClock is a precise Clock whose every read is step nanoseconds past
// the previous one, for tests that need stamps without a time source.
func StepClock(step int64) *Clock {
	var now int64
	return &Clock{precise: true, read: func() int64 { now += step; return now }}
}

// CompileRecording compiles g's latest recording again after the
// persistent region that recorded it has closed: the schedule that
// region compiled and replayed, for external tests that record through
// the runtime. Compile is a function of the recording alone.
func (g *Graph) CompileRecording() (*Compiled, error) {
	defer func(p bool) { g.persistent = p }(g.persistent)
	g.persistent = true
	return g.compile(true)
}

// KeptRows is c's reduced schedule, successor positions by position.
func (c *Compiled) KeptRows() [][]int32 { return compiledCSR(c) }
