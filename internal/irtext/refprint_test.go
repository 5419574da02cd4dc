package irtext

// refPrint is Print, and refInstrString ir.Instr.String, as they were
// before rendering went through strconv, kept verbatim (apart from names)
// as the reference side of FuzzParse and the renderer differential in
// print_test.go.

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/ir"
)

func refPrint(w io.Writer, g *ir.Graph) error {
	if g.Name != "" {
		if _, err := fmt.Fprintf(w, "graph %s\n", g.Name); err != nil {
			return err
		}
	}
	for _, in := range g.Instrs {
		if _, err := fmt.Fprintln(w, refInstrString(in)); err != nil {
			return err
		}
	}
	for _, e := range g.MemEdges() {
		if _, err := fmt.Fprintf(w, "memedge %d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}

func refInstrString(in *ir.Instr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d: %s", in.ID, in.Op)
	for _, a := range in.Args {
		fmt.Fprintf(&b, " %%%d", a)
	}
	switch in.Op {
	case ir.ConstInt:
		fmt.Fprintf(&b, " %d", in.Imm)
	case ir.ConstFloat:
		fmt.Fprintf(&b, " %g", in.FImm)
	}
	if in.Bank != ir.NoBank {
		fmt.Fprintf(&b, " bank=%d", in.Bank)
	}
	if in.Preplaced() {
		fmt.Fprintf(&b, " @home=%d", in.Home)
	}
	if in.Name != "" {
		fmt.Fprintf(&b, " ; %s", in.Name)
	}
	return b.String()
}
