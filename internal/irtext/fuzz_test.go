package irtext_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/ir/irtest"
	"repro/internal/irtext"
)

// FuzzParse feeds arbitrary text to the .ddg parser. The contract under
// test: Parse never panics — malformed input (undefined operands, bad
// arity, backward memory edges, garbage tokens) comes back as an error —
// anything Parse does accept prints exactly as the reference printer prints
// it and survives the Parse→String→Parse round-trip as a fixed point, and
// Parse agrees with the reference parser: the same
// error message, or the same graph with the same sealed adjacency as the
// reference seal computes.
func FuzzParse(f *testing.F) {
	// Well-formed seeds: a real kernel, a random DAG with preplacement,
	// and a hand-written graph exercising every token kind.
	if k, ok := bench.ByName("vvmul"); ok {
		f.Add(irtext.String(k.Build(2)))
	}
	f.Add(irtext.String(bench.RandomLayered(30, 4, 2, 1)))
	f.Add(`graph tiny
0: const 7 ; seven
1: fconst 2.5
2: load %0 bank=1
3: add %0 %2 @home=1
4: store %0 %3 bank=0
memedge 2 4
`)
	// Malformed seeds steering the fuzzer at the failure classes named in
	// the parser's error paths.
	for _, bad := range []string{
		"0: add %5 %9",                  // undefined operands
		"0: const",                      // missing immediate
		"1: add",                        // id out of order
		"0: frobnicate",                 // unknown opcode
		"0: const 1\nmemedge 1 0",       // backward/out-of-range memedge
		"0: add 3",                      // immediate on a non-const
		"0: const 99999999999999999999", // immediate overflow
		"graph",                         // header arity
		"memedge 0",                     // memedge arity
		"0 const 1",                     // missing colon
		"0: load bank=x",                // bad bank
		"0: add %a %b",                  // bad operand syntax
	} {
		f.Add(bad)
	}
	// White space strings.Fields splits on beyond ASCII (NBSP, NEL, the
	// ideographic and em spaces, the line separator) and runes it does
	// not (zero-width space, an invalid byte).
	for _, ws := range unicodeSpaces {
		f.Add("0:" + ws + "const" + ws + "1\n1: neg" + ws + "%0 ;" + ws + "n")
	}
	f.Fuzz(func(t *testing.T, data string) {
		g, err := irtext.ParseString(data)
		if msg := diffParse(data, g, err); msg != "" {
			t.Fatalf("Parse disagrees with the reference on %q: %s", data, msg)
		}
		if err != nil {
			return // rejected cleanly; that is the contract
		}
		s := irtext.String(g)
		if ref := refString(t, g); s != ref {
			t.Fatalf("String disagrees with the reference printer:\n%s\nreference:\n%s", s, ref)
		}
		g2, err := irtext.ParseString(s)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\nprinted form:\n%s", err, s)
		}
		if s2 := irtext.String(g2); s2 != s {
			t.Fatalf("Parse→String→Parse not a fixed point:\nfirst:\n%s\nsecond:\n%s", s, s2)
		}
	})
}

// TestParseMalformedInputs pins the error paths the fuzzer steers at, so
// they stay errors (not panics) even without a fuzzing run.
func TestParseMalformedInputs(t *testing.T) {
	cases := map[string]string{
		"undefined operand":    "0: add %5 %9",
		"self operand":         "0: add %0 %0",
		"missing immediate":    "0: const",
		"unknown opcode":       "0: frobnicate",
		"backward memedge":     "0: const 1\n1: const 2\nmemedge 1 0",
		"out-of-range memedge": "0: const 1\nmemedge 0 5",
		"bad arity store":      "0: const 1\n1: store %0",
		"immediate on add":     "0: const 1\n1: const 2\n2: add %0 %1 3",
		"double immediate":     "0: const 1 2",
		"id out of order":      "5: const 1",
		"missing colon":        "0 const 1",
		"bad bank":             "0: const 1\n1: load %0 bank=x",
		"bad home":             "0: const 1 @home=x",
		"negative operand":     "0: add %-1 %-1",
		"load without address": "0: load",
		"empty graph header":   "graph",
	}
	for label, in := range cases {
		if _, err := irtext.ParseString(in); err == nil {
			t.Errorf("%s: accepted %q", label, in)
		}
	}
}

// unicodeSpaces lists separators for the white-space seeds and tests.
var unicodeSpaces = []string{"\u00a0", "\u0085", "\u3000", "\u2003", "\u2028", "\v\f", "\u200b", "\xff", "\t \u00a0 "}

// diffParse compares one Parse outcome with the reference parser's on the
// same input and describes the first difference, or returns "".
func diffParse(data string, g *ir.Graph, err error) string {
	ref, refErr := irtext.RefParse(strings.NewReader(data))
	switch {
	case err != nil || refErr != nil:
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			return fmt.Sprintf("error %v, reference %v", err, refErr)
		}
		return ""
	case g.Name != ref.Name || g.Len() != ref.Len():
		return fmt.Sprintf("graph %q of %d, reference %q of %d", g.Name, g.Len(), ref.Name, ref.Len())
	case !slices.Equal(g.MemEdges(), ref.MemEdges()):
		return fmt.Sprintf("memedges %v, reference %v", g.MemEdges(), ref.MemEdges())
	}
	for i, in := range g.Instrs {
		r := ref.Instrs[i]
		if in.ID != r.ID || in.Op != r.Op || !slices.Equal(in.Args, r.Args) || in.Imm != r.Imm ||
			math.Float64bits(in.FImm) != math.Float64bits(r.FImm) || in.Bank != r.Bank || in.Home != r.Home || in.Name != r.Name {
			return fmt.Sprintf("instr %d is %+v, reference %+v", i, *in, *r)
		}
	}
	return irtest.Diff(irtest.Sealed(g), irtest.RefSeal(ref))
}
