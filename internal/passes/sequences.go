package passes

import "repro/internal/core"

// RawSequence returns the pass sequence the paper uses for the Raw machine
// (Table 1a):
//
//	INITTIME, PLACEPROP, LOAD, PLACE, PATH, PATHPROP, LEVEL, PATHPROP,
//	COMM, PATHPROP, EMPHCP
func RawSequence() []core.Pass {
	return []core.Pass{
		InitTime{},
		PlaceProp{},
		Load{},
		Place{},
		Path{},
		PathProp{},
		Level{},
		PathProp{},
		Comm{IncludeGrand: true},
		PathProp{},
		EmphCP{},
	}
}

// PublishedVliwSequence returns exactly the pass sequence of Table 1b:
//
//	INITTIME, NOISE, FIRST, PATH, COMM, PLACE, PLACEPROP, COMM, EMPHCP
func PublishedVliwSequence() []core.Pass {
	return []core.Pass{
		InitTime{},
		Noise{},
		First{},
		Path{},
		Comm{},
		Place{},
		PlaceProp{},
		Comm{},
		EmphCP{},
	}
}

// VliwSequence returns the pass sequence this repository uses for the
// clustered VLIW: Table 1b with a FULOAD balancing pass after each COMM,
// and slack-weighted COMM pulls. The original Chorus kept clusters balanced
// through an infrastructure invariant (all live data starts on the first
// cluster and spreads on demand) that our machine model does not have;
// without a balancing pass the COMM/FIRST combination snowballs work onto
// cluster 0. The paper states its pass sets and constants were chosen by
// trial-and-error per infrastructure; this is ours, and the ablation
// benchmarks compare it against PublishedVliwSequence.
func VliwSequence() []core.Pass {
	return []core.Pass{
		InitTime{},
		Noise{},
		First{},
		Path{},
		Comm{SlackWeight: 4},
		FULoad{},
		Place{},
		PlaceProp{},
		Comm{SlackWeight: 4},
		FULoad{},
		EmphCP{},
	}
}

// IsRaw reports whether a machine name selects the Raw sequences: "raw*"
// names do, every other name selects the VLIW ones.
func IsRaw(name string) bool { return len(name) >= 3 && name[:3] == "raw" }

// ForMachine returns the published sequence for a machine name prefix:
// sequences for "raw*" machines come from RawSequence, everything else from
// VliwSequence.
func ForMachine(name string) []core.Pass {
	if IsRaw(name) {
		return RawSequence()
	}
	return VliwSequence()
}

// TunedRawLabels is the winning raw-machine pass sequence from the
// oracle-guided hill climb (tuneseq -machine raw4 -kernels all -oracle
// -iters 150 -seed 2002): candidate sequences were scored by total schedule
// cycles over the full Raw suite against oracle-certified lower bounds.
// The climb starts from the published sequence and accepts only
// non-worsening edits, so this sequence is never worse than RawSequence on
// that suite; it cut the suite's optimality gap from 1039 to 222 cycles
// over the certified bound (2829 -> 2012 total, 28.9%).
var TunedRawLabels = []string{
	"PATHPROP", "LOAD", "PLACEPROP", "NOISE", "COMM2", "PLACE",
	"PATHPROP", "REGPRES", "LOAD", "COMM2",
}

// TunedVliwLabels is the winning VLIW pass sequence from the same
// oracle-guided climb on the Chorus suite (tuneseq -machine vliw4 -kernels
// all -oracle -iters 150 -seed 2002); it cut the suite's optimality gap
// from 196 to 110 cycles over the certified bound (1168 -> 1082 total).
var TunedVliwLabels = []string{
	"COMM2", "PLACEPROP", "NOISE", "LOAD", "PATH", "FULOAD", "PLACEPROP",
	"PLACEPROP", "REGPRES", "PLACEPROP", "FULOAD", "PLACE", "COMM2",
	"COMM", "EMPHCP",
}

// TunedLabelsForMachine returns the tuned label list for a machine name
// prefix, mirroring ForMachine's raw/vliw split.
func TunedLabelsForMachine(name string) []string {
	if IsRaw(name) {
		return TunedRawLabels
	}
	return TunedVliwLabels
}

// TunedForMachine resolves the tuned label list into a pass sequence. The
// labels are compile-time constants validated by tests, so resolution
// cannot fail; an unknown label would be a build bug and panics.
func TunedForMachine(name string) []core.Pass {
	labels := TunedLabelsForMachine(name)
	seq := make([]core.Pass, 0, len(labels))
	for _, l := range labels {
		p, ok := Named(l)
		if !ok {
			panic("passes: tuned sequence names unknown pass " + l)
		}
		seq = append(seq, p)
	}
	return seq
}

// Named returns a single pass by its table label, or false if the label is
// unknown. Labels match Pass.Name: INITTIME, NOISE, PLACE, FIRST, PATH,
// COMM, COMM2, PLACEPROP, LOAD, LEVEL, PATHPROP, EMPHCP.
func Named(label string) (core.Pass, bool) {
	switch label {
	case "INITTIME":
		return InitTime{}, true
	case "NOISE":
		return Noise{}, true
	case "PLACE":
		return Place{}, true
	case "FIRST":
		return First{}, true
	case "PATH":
		return Path{}, true
	case "COMM":
		return Comm{}, true
	case "COMM2":
		return Comm{IncludeGrand: true}, true
	case "PLACEPROP":
		return PlaceProp{}, true
	case "LOAD":
		return Load{}, true
	case "FULOAD":
		return FULoad{}, true
	case "REGPRES":
		return RegPres{}, true
	case "LEVEL":
		return Level{}, true
	case "PATHPROP":
		return PathProp{}, true
	case "EMPHCP":
		return EmphCP{}, true
	}
	return nil, false
}

// AllLabels lists every pass label accepted by Named, in a stable order.
func AllLabels() []string {
	return []string{"INITTIME", "NOISE", "PLACE", "FIRST", "PATH", "COMM", "COMM2", "PLACEPROP", "LOAD", "FULOAD", "REGPRES", "LEVEL", "PATHPROP", "EMPHCP"}
}
