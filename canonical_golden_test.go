package repro

// Identity pin for the canonical graph hash. The schedule cache, the
// persistent store and the gateway's ring all key on ir.Canonical, so a
// changed hash would silently turn every store written by an earlier build
// into misses. testdata/canonical_golden.json freezes the hash and a digest
// of the canonical order of every kernel on raw4, raw16 and vliw4, of the
// Figure 10 random regions, of a one-instruction graph and of graphs whose
// instructions cannot be told apart. Regenerate with
// -update-canonical-golden only when a new identity is intended.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/exp"
	"repro/internal/ir"
	"repro/internal/machine"
)

var updateCanonicalGolden = flag.Bool("update-canonical-golden", false,
	"regenerate testdata/canonical_golden.json from the current canonical hash")

const canonicalGoldenPath = "testdata/canonical_golden.json"

// canonicalFingerprint renders g's canonical hash and a SHA-256 digest of
// its canonical order.
func canonicalFingerprint(g *ir.Graph) string {
	c := g.Canonical()
	buf := make([]byte, 0, 8*len(c.Order))
	for _, r := range c.Order {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r))
	}
	d := sha256.Sum256(buf)
	return c.Hash.String() + "/" + hex.EncodeToString(d[:])
}

// symmetricGraphs returns graphs whose refinement cannot separate some or
// all instructions, so their order rests on the ID tie-break: sixteen equal
// constants, and four equal load-add-store chains on one bank.
func symmetricGraphs() []*ir.Graph {
	flat := ir.New("symmetric-flat")
	for i := 0; i < 16; i++ {
		flat.AddConst(0)
	}
	chains := ir.New("symmetric-chains")
	for i := 0; i < 4; i++ {
		addr := chains.AddConst(0)
		ld := chains.AddLoad(0, addr.ID)
		one := chains.AddConst(1)
		sum := chains.Add(ir.Add, ld.ID, one.ID)
		chains.AddStore(0, addr.ID, sum.ID)
	}
	return []*ir.Graph{flat, chains}
}

func canonicalSweep() map[string]string {
	out := make(map[string]string)
	for _, m := range []*machine.Model{machine.Raw(4), machine.Raw(16), machine.Chorus(4)} {
		for _, k := range bench.All() {
			out[fmt.Sprintf("%s/%s", k.Name, m.Name)] = canonicalFingerprint(k.Build(m.NumClusters))
		}
	}
	for _, n := range []int{100, 250, 500, 1000, 2000} {
		g := bench.RandomLayered(n, n/12+4, 4, exp.Seed)
		out[fmt.Sprintf("fig10/n%d", n)] = canonicalFingerprint(g)
	}
	one := ir.New("single")
	one.AddConst(7)
	out["single"] = canonicalFingerprint(one)
	for _, g := range symmetricGraphs() {
		out[g.Name] = canonicalFingerprint(g)
	}
	return out
}

func TestCanonicalIdentityMatchesGolden(t *testing.T) {
	checkGolden(t, canonicalGoldenPath, "update-canonical-golden", *updateCanonicalGolden, true, canonicalSweep())
}
