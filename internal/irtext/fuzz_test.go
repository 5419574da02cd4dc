package irtext_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/irtext"
)

// FuzzParse feeds arbitrary text to the .ddg parser. The contract under
// test: Parse never panics — malformed input (undefined operands, bad
// arity, backward memory edges, garbage tokens) comes back as an error —
// and anything Parse does accept survives the Parse→String→Parse
// round-trip as a fixed point.
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
	f.Fuzz(func(t *testing.T, data string) {
		g, err := irtext.ParseString(data)
		if err != nil {
			return // rejected cleanly; that is the contract
		}
		s := irtext.String(g)
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
