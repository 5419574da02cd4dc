// Package irtext reads and writes dependence graphs in a small line-based
// text format (".ddg"), so graphs can be passed between the command-line
// tools and checked into test data.
//
// Format, one instruction per line in topological order:
//
//	# comment or blank lines are ignored
//	graph <name>                 (optional header)
//	<id>: <op> [%argID ...] [immediate] [bank=N] [@home=N] [; name]
//	memedge <from> <to>          (explicit memory-order edge)
//
// IDs must count up from zero in file order. Immediates are required for
// const/fconst and forbidden elsewhere. The format is exactly what
// ir.Instr.String prints, so Print and Parse round-trip.
package irtext

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/ir"
)

// Print writes the graph in .ddg form.
func Print(w io.Writer, g *ir.Graph) error {
	_, err := io.WriteString(w, String(g))
	return err
}

// String renders the graph in .ddg form. The builder is sized up front
// and each line is rendered by ir.Instr.AppendText into a stack scratch,
// so the returned string is the call's only allocation.
func String(g *ir.Graph) string {
	var b strings.Builder
	b.Grow(textLen(g))
	if g.Name != "" {
		b.WriteString("graph ")
		b.WriteString(g.Name)
		b.WriteByte('\n')
	}
	var scratch [128]byte
	line := scratch[:0]
	for _, in := range g.Instrs {
		line = append(in.AppendText(line[:0]), '\n')
		b.Write(line)
	}
	for _, e := range g.MemEdges() {
		line = append(line[:0], "memedge "...)
		line = strconv.AppendInt(line, int64(e[0]), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(e[1]), 10)
		b.Write(append(line, '\n'))
	}
	return b.String()
}

// maxFloatLen is the length of the longest float64 in strconv's shortest
// 'g' form, "-2.2250738585072014e-308".
const maxFloatLen = 24

// textLen returns the length of g's text, exactly but for float
// immediates, which it counts at maxFloatLen.
func textLen(g *ir.Graph) int {
	n := 0
	if g.Name != "" {
		n += len("graph \n") + len(g.Name)
	}
	for _, in := range g.Instrs {
		n += decLen(int64(in.ID)) + len(": \n") + len(in.Op.String())
		for _, a := range in.Args {
			n += len(" %") + decLen(int64(a))
		}
		switch in.Op {
		case ir.ConstInt:
			n += 1 + decLen(in.Imm)
		case ir.ConstFloat:
			n += 1 + maxFloatLen
		}
		if in.Bank != ir.NoBank {
			n += len(" bank=") + decLen(int64(in.Bank))
		}
		if in.Preplaced() {
			n += len(" @home=") + decLen(int64(in.Home))
		}
		if in.Name != "" {
			n += len(" ; ") + len(in.Name)
		}
	}
	for _, e := range g.MemEdges() {
		n += len("memedge  \n") + decLen(int64(e[0])) + decLen(int64(e[1]))
	}
	return n
}

// decLen returns the length of v in decimal, sign included.
func decLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// ParseFile reads a .ddg graph from a file. Graphs without a "graph" header
// are named after the file's base name (minus the extension), so batch tools
// can label results even for anonymous inputs.
func ParseFile(path string) (*ir.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if g.Name == "" {
		g.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return g, nil
}

// Parse reads a .ddg graph. The returned graph is validated.
func Parse(r io.Reader) (*ir.Graph, error) {
	g := ir.New("")
	sc := bufio.NewScanner(r)
	// The buffer starts small and doubles on demand, up to a 4 MiB line.
	sc.Buffer(nil, 1<<22)
	// Lines are read in place from the scanner's buffer, which the next
	// Scan overwrites: only the graph name and instruction names, which
	// the graph keeps, are copied out.
	var fields [][]byte // reused by every line
	var args []int      // operand scratch, reused by every instruction
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		// A trailing "; name" comment names the instruction.
		name := ""
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			name = string(bytes.TrimSpace(line[i+1:]))
			line = line[:i]
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		fields = appendFields(fields[:0], line)
		switch string(fields[0]) {
		case "graph":
			if len(fields) != 2 {
				return nil, fmt.Errorf("irtext: line %d: want 'graph <name>'", lineNo)
			}
			g.Name = string(fields[1])
			continue
		case "memedge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("irtext: line %d: want 'memedge <from> <to>'", lineNo)
			}
			from, err1 := strconv.Atoi(string(fields[1]))
			to, err2 := strconv.Atoi(string(fields[2]))
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("irtext: line %d: bad memedge operands", lineNo)
			}
			if from < 0 || from >= g.Len() || to < 0 || to >= g.Len() || from >= to {
				return nil, fmt.Errorf("irtext: line %d: memedge (%d,%d) out of range", lineNo, from, to)
			}
			g.AddMemEdge(from, to)
			continue
		}
		if err := parseInstr(g, fields, name, lineNo, &args); err != nil {
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

// appendFields appends the fields of s to dst exactly as strings.Fields
// splits them: around runs of Unicode white space, with invalid UTF-8
// bytes counting as non-space.
func appendFields(dst [][]byte, s []byte) [][]byte {
	start := -1
	for i := 0; i < len(s); {
		c, width := s[i], 1
		space := asciiSpace[c]
		if c >= utf8.RuneSelf {
			var r rune
			r, width = utf8.DecodeRune(s[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += width
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// asciiSpace is unicode.IsSpace on the ASCII range.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// ParseString parses a .ddg graph from a string.
func ParseString(s string) (*ir.Graph, error) {
	return Parse(strings.NewReader(s))
}

// parseInstr adds the instruction on one line to g. It collects the
// operands in *scratch, which it leaves grown for the next line. fields
// alias the scanner's buffer and must not be retained.
func parseInstr(g *ir.Graph, fields [][]byte, name string, lineNo int, scratch *[]int) (err error) {
	// Recover the builder's panics into parse errors so malformed input
	// never crashes a tool.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("irtext: line %d: %v", lineNo, r)
		}
	}()
	idField, ok := bytes.CutSuffix(fields[0], []byte(":"))
	if !ok {
		return fmt.Errorf("irtext: line %d: missing ':' after instruction id", lineNo)
	}
	id, aerr := strconv.Atoi(string(idField))
	if aerr != nil {
		return fmt.Errorf("irtext: line %d: bad instruction id %q", lineNo, idField)
	}
	if id != g.Len() {
		return fmt.Errorf("irtext: line %d: instruction id %d out of order (want %d)", lineNo, id, g.Len())
	}
	if len(fields) < 2 {
		return fmt.Errorf("irtext: line %d: missing opcode", lineNo)
	}
	op, ok := ir.OpFromString(string(fields[1]))
	if !ok {
		return fmt.Errorf("irtext: line %d: unknown opcode %q", lineNo, fields[1])
	}
	args := (*scratch)[:0]
	bank := ir.NoBank
	home := ir.NoHome
	var imm []byte
	hasImm := false
	for _, f := range fields[2:] {
		switch {
		case bytes.HasPrefix(f, []byte("%")):
			a, aerr := strconv.Atoi(string(f[1:]))
			if aerr != nil {
				return fmt.Errorf("irtext: line %d: bad operand %q", lineNo, f)
			}
			args = append(args, a)
		case bytes.HasPrefix(f, []byte("bank=")):
			b, aerr := strconv.Atoi(string(f[len("bank="):]))
			if aerr != nil {
				return fmt.Errorf("irtext: line %d: bad bank %q", lineNo, f)
			}
			bank = b
		case bytes.HasPrefix(f, []byte("@home=")):
			h, aerr := strconv.Atoi(string(f[len("@home="):]))
			if aerr != nil {
				return fmt.Errorf("irtext: line %d: bad home %q", lineNo, f)
			}
			home = h
		default:
			if hasImm {
				return fmt.Errorf("irtext: line %d: unexpected token %q", lineNo, f)
			}
			imm, hasImm = f, true
		}
	}
	*scratch = args // Add copies the operands
	in := g.Add(op, args...)
	in.Name = name
	switch op {
	case ir.ConstInt:
		if !hasImm {
			return fmt.Errorf("irtext: line %d: const needs an immediate", lineNo)
		}
		v, aerr := strconv.ParseInt(string(imm), 10, 64)
		if aerr != nil {
			return fmt.Errorf("irtext: line %d: bad integer immediate %q", lineNo, imm)
		}
		in.Imm = v
	case ir.ConstFloat:
		if !hasImm {
			return fmt.Errorf("irtext: line %d: fconst needs an immediate", lineNo)
		}
		v, aerr := strconv.ParseFloat(string(imm), 64)
		if aerr != nil {
			return fmt.Errorf("irtext: line %d: bad float immediate %q", lineNo, imm)
		}
		in.FImm = v
	default:
		if hasImm {
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
