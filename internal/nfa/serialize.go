package nfa

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// Serialization: a line-oriented text format for machines, so solved
// languages can be cached on disk or shipped between tools. The format is
// versioned and self-delimiting:
//
//	dprle-nfa 1
//	states <n> start <s> final <f>
//	edge <from> <to> <ranges>        # ranges: lo-hi[,lo-hi…] in decimal
//	eps <from> <to> [tag]
//	end
//
// Seam tags survive a round trip, so even intermediate solver machines can
// be persisted.

const serializeHeader = "dprle-nfa 1"

// Marshal returns the machine serialized as a string.
func (m *NFA) Marshal() string {
	return string(m.appendWire(make([]byte, 0, 64+32*m.NumStates())))
}

// Key returns the machine's exact serialization, Marshal, memoized on the
// machine. Equal keys mean identical machines: the same states, edges, seam
// tags, start and final. That makes the key sound as a cache key, and
// because every machine is built deterministically, a rebuilt machine keys
// the same as the original. Repeated calls, the common case when one
// constant constrains many components, cost one atomic load.
func (m *NFA) Key() string {
	if k := m.key.Load(); k != nil {
		return *k
	}
	k := m.Marshal()
	m.key.Store(&k)
	return k
}

// appendWire appends the wire-format serialization to b. Serialization sits
// on the cache-key path, consulted once per cache probe of a fresh machine,
// so it is written with integer appends rather than fmt.
func (m *NFA) appendWire(b []byte) []byte {
	b = append(b, serializeHeader...)
	b = append(b, "\nstates "...)
	b = strconv.AppendInt(b, int64(m.NumStates()), 10)
	b = append(b, " start "...)
	b = strconv.AppendInt(b, int64(m.start), 10)
	b = append(b, " final "...)
	b = strconv.AppendInt(b, int64(m.final), 10)
	b = append(b, '\n')
	for s := 0; s < m.NumStates(); s++ {
		for _, e := range m.edges[s] {
			b = append(b, "edge "...)
			b = strconv.AppendInt(b, int64(s), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(e.To), 10)
			b = append(b, ' ')
			b = appendRangesText(b, e.Label)
			b = append(b, '\n')
		}
		for _, e := range m.eps[s] {
			b = append(b, "eps "...)
			b = strconv.AppendInt(b, int64(s), 10)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(e.To), 10)
			if e.Tag != NoTag {
				b = append(b, ' ')
				b = strconv.AppendInt(b, int64(e.Tag), 10)
			}
			b = append(b, '\n')
		}
	}
	return append(b, "end\n"...)
}

// appendRangesText appends the maximal contiguous [lo,hi] runs of the set
// as "lo-hi[,lo-hi…]" in decimal.
func appendRangesText(b []byte, set CharSet) []byte {
	first := true
	for c := 0; c < 256; {
		if !set.Contains(byte(c)) {
			c++
			continue
		}
		lo := c
		for c < 256 && set.Contains(byte(c)) {
			c++
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = strconv.AppendInt(b, int64(lo), 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(c-1), 10)
	}
	return b
}

// Unmarshal parses a machine serialized by Marshal.
func Unmarshal(s string) (*NFA, error) {
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := func() (string, bool) {
		for sc.Scan() {
			t := strings.TrimSpace(sc.Text())
			if t != "" && !strings.HasPrefix(t, "#") {
				return t, true
			}
		}
		return "", false
	}
	hdr, ok := line()
	if !ok || hdr != serializeHeader {
		return nil, fmt.Errorf("nfa: bad header %q", hdr)
	}
	decl, ok := line()
	if !ok {
		return nil, fmt.Errorf("nfa: missing states declaration")
	}
	var n, start, final int
	if _, err := fmt.Sscanf(decl, "states %d start %d final %d", &n, &start, &final); err != nil {
		return nil, fmt.Errorf("nfa: bad states declaration %q: %w", decl, err)
	}
	if n <= 0 || start < 0 || start >= n || final < 0 || final >= n {
		return nil, fmt.Errorf("nfa: out-of-range states declaration %q", decl)
	}
	b := NewBuilder()
	b.AddStates(n)
	for {
		l, ok := line()
		if !ok {
			return nil, fmt.Errorf("nfa: missing end marker")
		}
		fields := strings.Fields(l)
		switch fields[0] {
		case "end":
			return b.Build(start, final), nil
		case "edge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("nfa: bad edge line %q", l)
			}
			var from, to int
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &from, &to); err != nil {
				return nil, fmt.Errorf("nfa: bad edge line %q: %w", l, err)
			}
			set, err := parseRanges(fields[3])
			if err != nil {
				return nil, fmt.Errorf("nfa: bad edge line %q: %w", l, err)
			}
			if from < 0 || from >= n || to < 0 || to >= n {
				return nil, fmt.Errorf("nfa: edge state out of range in %q", l)
			}
			b.AddEdge(from, set, to)
		case "eps":
			if len(fields) != 3 && len(fields) != 4 {
				return nil, fmt.Errorf("nfa: bad eps line %q", l)
			}
			var from, to int
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &from, &to); err != nil {
				return nil, fmt.Errorf("nfa: bad eps line %q: %w", l, err)
			}
			if from < 0 || from >= n || to < 0 || to >= n {
				return nil, fmt.Errorf("nfa: eps state out of range in %q", l)
			}
			if len(fields) == 4 {
				var tag int
				if _, err := fmt.Sscanf(fields[3], "%d", &tag); err != nil || tag < 0 {
					return nil, fmt.Errorf("nfa: bad eps tag in %q", l)
				}
				b.AddTaggedEps(from, to, tag)
			} else {
				b.AddEps(from, to)
			}
		default:
			return nil, fmt.Errorf("nfa: unknown directive %q", fields[0])
		}
	}
}

func parseRanges(text string) (CharSet, error) {
	var set CharSet
	for _, part := range strings.Split(text, ",") {
		var lo, hi int
		if _, err := fmt.Sscanf(part, "%d-%d", &lo, &hi); err != nil {
			return set, fmt.Errorf("bad range %q: %w", part, err)
		}
		if lo < 0 || hi > 255 || lo > hi {
			return set, fmt.Errorf("range %q out of bounds", part)
		}
		set.AddRange(byte(lo), byte(hi))
	}
	return set, nil
}
