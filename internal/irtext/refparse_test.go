package irtext

// refParse is the .ddg parser as it was before it reused its field and
// operand buffers, kept verbatim (apart from names) as the reference side
// of FuzzParse and the parser differential in parse_test.go.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/ir"
)

func refParse(r io.Reader) (*ir.Graph, error) {
	g := ir.New("")
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		// A trailing "; name" comment names the instruction.
		name := ""
		if i := strings.Index(line, ";"); i >= 0 {
			name = strings.TrimSpace(line[i+1:])
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "graph":
			if len(fields) != 2 {
				return nil, fmt.Errorf("irtext: line %d: want 'graph <name>'", lineNo)
			}
			g.Name = fields[1]
			continue
		case "memedge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("irtext: line %d: want 'memedge <from> <to>'", lineNo)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("irtext: line %d: bad memedge operands", lineNo)
			}
			if from < 0 || from >= g.Len() || to < 0 || to >= g.Len() || from >= to {
				return nil, fmt.Errorf("irtext: line %d: memedge (%d,%d) out of range", lineNo, from, to)
			}
			g.AddMemEdge(from, to)
			continue
		}
		if err := refParseInstr(g, fields, name, lineNo); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("irtext: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func refParseInstr(g *ir.Graph, fields []string, name string, lineNo int) (err error) {
	// Recover the builder's panics into parse errors so malformed input
	// never crashes a tool.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("irtext: line %d: %v", lineNo, r)
		}
	}()
	idField := strings.TrimSuffix(fields[0], ":")
	if idField == fields[0] {
		return fmt.Errorf("irtext: line %d: missing ':' after instruction id", lineNo)
	}
	id, aerr := strconv.Atoi(idField)
	if aerr != nil {
		return fmt.Errorf("irtext: line %d: bad instruction id %q", lineNo, idField)
	}
	if id != g.Len() {
		return fmt.Errorf("irtext: line %d: instruction id %d out of order (want %d)", lineNo, id, g.Len())
	}
	if len(fields) < 2 {
		return fmt.Errorf("irtext: line %d: missing opcode", lineNo)
	}
	op, ok := ir.OpFromString(fields[1])
	if !ok {
		return fmt.Errorf("irtext: line %d: unknown opcode %q", lineNo, fields[1])
	}
	var args []int
	bank := ir.NoBank
	home := ir.NoHome
	var imm *string
	for _, f := range fields[2:] {
		switch {
		case strings.HasPrefix(f, "%"):
			a, aerr := strconv.Atoi(f[1:])
			if aerr != nil {
				return fmt.Errorf("irtext: line %d: bad operand %q", lineNo, f)
			}
			args = append(args, a)
		case strings.HasPrefix(f, "bank="):
			b, aerr := strconv.Atoi(f[len("bank="):])
			if aerr != nil {
				return fmt.Errorf("irtext: line %d: bad bank %q", lineNo, f)
			}
			bank = b
		case strings.HasPrefix(f, "@home="):
			h, aerr := strconv.Atoi(f[len("@home="):])
			if aerr != nil {
				return fmt.Errorf("irtext: line %d: bad home %q", lineNo, f)
			}
			home = h
		default:
			if imm != nil {
				return fmt.Errorf("irtext: line %d: unexpected token %q", lineNo, f)
			}
			v := f
			imm = &v
		}
	}
	in := g.Add(op, args...)
	in.Name = name
	switch op {
	case ir.ConstInt:
		if imm == nil {
			return fmt.Errorf("irtext: line %d: const needs an immediate", lineNo)
		}
		v, aerr := strconv.ParseInt(*imm, 10, 64)
		if aerr != nil {
			return fmt.Errorf("irtext: line %d: bad integer immediate %q", lineNo, *imm)
		}
		in.Imm = v
	case ir.ConstFloat:
		if imm == nil {
			return fmt.Errorf("irtext: line %d: fconst needs an immediate", lineNo)
		}
		v, aerr := strconv.ParseFloat(*imm, 64)
		if aerr != nil {
			return fmt.Errorf("irtext: line %d: bad float immediate %q", lineNo, *imm)
		}
		in.FImm = v
	default:
		if imm != nil {
			return fmt.Errorf("irtext: line %d: %v takes no immediate", lineNo, op)
		}
	}
	if bank != ir.NoBank {
		in.Bank = bank
	}
	if home != ir.NoHome {
		in.Home = home
	}
	return nil
}
