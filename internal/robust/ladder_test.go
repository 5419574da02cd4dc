package robust_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/passes"
	"repro/internal/robust"
)

// TestLadderIDsPinned freezes the ladder identities robust.Select returns.
// They are cache-key parts that persisted stores depend on: a changed ID
// silently orphans every stored schedule, so any change here must be
// deliberate.
func TestLadderIDsPinned(t *testing.T) {
	cases := []struct {
		machine string
		tuned   bool
		want    string
	}{
		{"raw16", false,
			"convergent[passes.InitTime{},passes.PlaceProp{},passes.Load{},passes.Place{Factor:0},passes.Path{Factor:0 BiasRatio:0 MinFraction:0 MaxPaths:0},passes.PathProp{Threshold:0},passes.Level{Stride:0 MinDist:0 ConfThreshold:0 Factor:0},passes.PathProp{Threshold:0},passes.Comm{IncludeGrand:true Floor:0 SlackWeight:0},passes.PathProp{Threshold:0},passes.EmphCP{Factor:0}|seed=2002]>convergent-truncated[passes.InitTime{},passes.PlaceProp{},passes.Load{},passes.Place{Factor:0},passes.Path{Factor:0 BiasRatio:0 MinFraction:0 MaxPaths:0},passes.PathProp{Threshold:0}|seed=2003]>rawcc>list"},
		{"raw16", true,
			"convergent-tuned[passes.PathProp{Threshold:0},passes.Load{},passes.PlaceProp{},passes.Noise{Amp:0},passes.Comm{IncludeGrand:true Floor:0 SlackWeight:0},passes.Place{Factor:0},passes.PathProp{Threshold:0},passes.RegPres{Alpha:0},passes.Load{},passes.Comm{IncludeGrand:true Floor:0 SlackWeight:0}|seed=2002]>convergent-tuned-truncated[passes.PathProp{Threshold:0},passes.Load{},passes.PlaceProp{},passes.Noise{Amp:0},passes.Comm{IncludeGrand:true Floor:0 SlackWeight:0}|seed=2003]>rawcc>list"},
		{"vliw4", false,
			"convergent[passes.InitTime{},passes.Noise{Amp:0},passes.First{Factor:0},passes.Path{Factor:0 BiasRatio:0 MinFraction:0 MaxPaths:0},passes.Comm{IncludeGrand:false Floor:0 SlackWeight:4},passes.FULoad{},passes.Place{Factor:0},passes.PlaceProp{},passes.Comm{IncludeGrand:false Floor:0 SlackWeight:4},passes.FULoad{},passes.EmphCP{Factor:0}|seed=2002]>convergent-truncated[passes.InitTime{},passes.Noise{Amp:0},passes.First{Factor:0},passes.Path{Factor:0 BiasRatio:0 MinFraction:0 MaxPaths:0},passes.Comm{IncludeGrand:false Floor:0 SlackWeight:4},passes.FULoad{}|seed=2003]>uas>list"},
		{"vliw4", true,
			"convergent-tuned[passes.Comm{IncludeGrand:true Floor:0 SlackWeight:0},passes.PlaceProp{},passes.Noise{Amp:0},passes.Load{},passes.Path{Factor:0 BiasRatio:0 MinFraction:0 MaxPaths:0},passes.FULoad{},passes.PlaceProp{},passes.PlaceProp{},passes.RegPres{Alpha:0},passes.PlaceProp{},passes.FULoad{},passes.Place{Factor:0},passes.Comm{IncludeGrand:true Floor:0 SlackWeight:0},passes.Comm{IncludeGrand:false Floor:0 SlackWeight:0},passes.EmphCP{Factor:0}|seed=2002]>convergent-tuned-truncated[passes.Comm{IncludeGrand:true Floor:0 SlackWeight:0},passes.PlaceProp{},passes.Noise{Amp:0},passes.Load{},passes.Path{Factor:0 BiasRatio:0 MinFraction:0 MaxPaths:0},passes.FULoad{},passes.PlaceProp{},passes.PlaceProp{}|seed=2003]>uas>list"},
	}
	for _, c := range cases {
		m, err := machine.Named(c.machine)
		if err != nil {
			t.Fatal(err)
		}
		// The default ladder is keyed under the "default:" prefix that the
		// engine gives a nil-ladder job, so a request naming it and a job
		// leaving it implicit share cached schedules.
		scheduler, prefix := "convergent", "default:"
		if c.tuned {
			scheduler, prefix = "convergent-tuned", ""
		} else if got := robust.DefaultLadderID(m, 2002); got != c.want {
			t.Errorf("%s default ladder ID changed:\n got %s\nwant %s", c.machine, got, c.want)
		}
		_, got, err := robust.Select(m, scheduler, true, 2002)
		if err != nil {
			t.Fatal(err)
		}
		if got != prefix+c.want {
			t.Errorf("%s tuned=%v ladder ID changed:\n got %s\nwant %s%s", c.machine, c.tuned, got, prefix, c.want)
		}
	}

	// Single rungs and non-convergent fallback ladders. A convergent
	// rung's identity embeds its pass sequence, so a sequence change can
	// never serve schedules persisted under the old one.
	singles := []struct {
		machine, scheduler string
		fallback           bool
		want               string
	}{
		{"raw16", "convergent", false,
			"convergent[passes.InitTime{},passes.PlaceProp{},passes.Load{},passes.Place{Factor:0},passes.Path{Factor:0 BiasRatio:0 MinFraction:0 MaxPaths:0},passes.PathProp{Threshold:0},passes.Level{Stride:0 MinDist:0 ConfThreshold:0 Factor:0},passes.PathProp{Threshold:0},passes.Comm{IncludeGrand:true Floor:0 SlackWeight:0},passes.PathProp{Threshold:0},passes.EmphCP{Factor:0}|seed=2002]"},
		{"vliw4", "convergent", false,
			"convergent[passes.InitTime{},passes.Noise{Amp:0},passes.First{Factor:0},passes.Path{Factor:0 BiasRatio:0 MinFraction:0 MaxPaths:0},passes.Comm{IncludeGrand:false Floor:0 SlackWeight:4},passes.FULoad{},passes.Place{Factor:0},passes.PlaceProp{},passes.Comm{IncludeGrand:false Floor:0 SlackWeight:4},passes.FULoad{},passes.EmphCP{Factor:0}|seed=2002]"},
		{"vliw4", "convergent-tuned", false,
			"convergent-tuned[passes.Comm{IncludeGrand:true Floor:0 SlackWeight:0},passes.PlaceProp{},passes.Noise{Amp:0},passes.Load{},passes.Path{Factor:0 BiasRatio:0 MinFraction:0 MaxPaths:0},passes.FULoad{},passes.PlaceProp{},passes.PlaceProp{},passes.RegPres{Alpha:0},passes.PlaceProp{},passes.FULoad{},passes.Place{Factor:0},passes.Comm{IncludeGrand:true Floor:0 SlackWeight:0},passes.Comm{IncludeGrand:false Floor:0 SlackWeight:0},passes.EmphCP{Factor:0}|seed=2002]"},
		{"raw16", "rawcc", false, "rawcc"},
		{"raw16", "rawcc", true, "rawcc>list"},
		{"vliw4", "uas", false, "uas"},
		{"vliw4", "pcc", true, "pcc>list"},
		{"vliw4", "list", false, "list"},
		{"vliw4", "list", true, "list"},
	}
	for _, c := range singles {
		m, err := machine.Named(c.machine)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := robust.Select(m, c.scheduler, c.fallback, 2002)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s %s fallback=%v ID changed:\n got %s\nwant %s", c.machine, c.scheduler, c.fallback, got, c.want)
		}
		if c.scheduler == "convergent" && !strings.Contains(got, core.SequenceID(passes.ForMachine(m.Name))) {
			t.Errorf("%s convergent rung ID %s omits the pass-sequence identity", c.machine, got)
		}
	}
}

// TestSelectIDsNameTheSequencesRun checks the sequence identities Select
// formats once at start-up against the sequences its rungs run, formatted
// afresh, on machines of both families and several sizes, with fallback
// off and on.
func TestSelectIDsNameTheSequencesRun(t *testing.T) {
	const seed = -7
	for _, name := range []string{"raw1", "raw2", "raw4", "raw16", "vliw2", "vliw4", "vliw8"} {
		m, err := machine.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			scheduler string
			seq       []core.Pass
		}{
			{"convergent", passes.ForMachine(name)},
			{"convergent-tuned", passes.TunedForMachine(name)},
		} {
			single := fmt.Sprintf("%s[%s|seed=%d]", c.scheduler, core.SequenceID(c.seq), seed)
			truncated := fmt.Sprintf("%s-truncated[%s|seed=%d]", c.scheduler,
				core.SequenceID(robust.TruncatedSequence(c.seq)), seed+1)
			if _, got, err := robust.Select(m, c.scheduler, false, seed); err != nil || got != single {
				t.Errorf("%s %s: ID %q (%v), want %q", name, c.scheduler, got, err, single)
			}
			_, got, err := robust.Select(m, c.scheduler, true, seed)
			if err != nil || !strings.Contains(got, single+">"+truncated+">") {
				t.Errorf("%s %s with fallback: ID %q (%v), want it to hold %q then %q", name, c.scheduler, got, err, single, truncated)
			}
		}
	}
}
