package irtext_test

import (
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/bench"
	"repro/internal/irtext"
)

// TestParseMatchesReference runs Parse and the reference parser over every
// kernel's printed form, every white-space variant of a small graph, and
// inputs near the line-length cap, requiring the same graph and sealed
// adjacency or the same error.
func TestParseMatchesReference(t *testing.T) {
	var inputs []string
	for _, k := range bench.All() {
		for _, c := range []int{4, 16} {
			inputs = append(inputs, irtext.String(k.Build(c)))
		}
	}
	inputs = append(inputs, irtext.String(bench.RandomLayered(2000, 2000/12+4, 4, 1)))
	for _, ws := range unicodeSpaces {
		inputs = append(inputs,
			"graph"+ws+"g\n0:"+ws+"const"+ws+"1"+ws+"; a"+ws+"name"+ws+"\n1: neg"+ws+"%0\n2: add %1"+ws+"%0 @home=1",
			ws+"0: const 1 "+ws+"# c\n1: load %0"+ws+"bank=2\nmemedge"+ws+"0 1",
		)
	}
	long := strings.Repeat(" ", 1<<16)
	inputs = append(inputs,
		"0: const 1 ;"+long+"x\n1: neg %0",             // a line past the old initial buffer
		"0: const 1 ;"+strings.Repeat("x", 1<<22),      // past the line cap
		"0: const 1 ;"+strings.Repeat("x", (1<<22)-20), // just under it
	)
	for _, in := range inputs {
		g, err := irtext.ParseString(in)
		if msg := diffParse(in, g, err); msg != "" {
			t.Errorf("%.80q: %s", in, msg)
		}
	}
}

// TestParseReaderErrorMatchesReference: a read error mid-stream surfaces
// exactly as the reference reports it, whatever the buffer size.
func TestParseReaderErrorMatchesReference(t *testing.T) {
	text := irtext.String(bench.RandomLayered(400, 20, 4, 2))
	for _, cut := range []int{10, 4096, 5000, len(text) / 2} {
		mk := func() io.Reader {
			return io.MultiReader(strings.NewReader(text[:cut]), iotest.ErrReader(io.ErrUnexpectedEOF))
		}
		_, err := irtext.Parse(iotest.HalfReader(mk()))
		_, ref := irtext.RefParse(iotest.HalfReader(mk()))
		if err == nil || ref == nil || err.Error() != ref.Error() {
			t.Errorf("cut %d: error %v, reference %v", cut, err, ref)
		}
	}
}
