package robust_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/robust"
)

// TestLadderIDsPinned freezes the ladder identities. They are cache-key
// parts that persisted stores depend on: a changed ID silently orphans every
// stored schedule, so any change here must be deliberate.
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
		id := robust.DefaultLadderID
		if c.tuned {
			id = robust.TunedLadderID
		}
		if got := id(m, 2002); got != c.want {
			t.Errorf("%s tuned=%v ladder ID changed:\n got %s\nwant %s", c.machine, c.tuned, got, c.want)
		}
	}
}
