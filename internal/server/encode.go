package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"
)

// The 200 /schedule body is the service's largest and most frequent
// answer, so it is encoded by hand rather than by reflection. The output is
// byte for byte what json.NewEncoder(w).Encode(resp) writes: field order,
// omitempty, null for nil placements, encoding/json's string escaping and
// float format, and the trailing newline. Attempts and the trace are rare
// and nested, so they go through json.Marshal. Errors, /stats and peer
// records keep writeJSON.

// writeSchedule writes resp as the 200 /schedule body. Like writeJSON, it
// writes no body if resp cannot be encoded. The buffer comes from the
// server's free list, which, unlike a sync.Pool, survives the garbage
// collections a busy shard runs every few requests, so a buffer grows to
// the largest body once. A buffer larger than MaxBodyBytes is dropped
// rather than kept.
func (s *Server) writeSchedule(w http.ResponseWriter, resp *scheduleResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	var b []byte
	select {
	case b = <-s.bodies:
	default:
	}
	b, err := appendScheduleResponse(b, resp)
	if err == nil {
		_, _ = w.Write(b) // a failed write means the client is gone
	}
	if cap(b) <= MaxBodyBytes {
		select {
		case s.bodies <- b[:0]:
		default:
		}
	}
}

// appendScheduleResponse appends r's JSON encoding and a newline to b.
func appendScheduleResponse(b []byte, r *scheduleResponse) ([]byte, error) {
	b = append(b, `{"graph":`...)
	b = appendJSONString(b, r.Graph)
	b = append(b, `,"machine":`...)
	b = appendJSONString(b, r.Machine)
	if r.Shard != "" {
		b = append(b, `,"shard":`...)
		b = appendJSONString(b, r.Shard)
	}
	if r.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = appendJSONString(b, r.Tenant)
	}
	if r.Class != "" {
		b = append(b, `,"class":`...)
		b = appendJSONString(b, r.Class)
	}
	b = append(b, `,"served":`...)
	b = appendJSONString(b, r.Served)
	b = append(b, `,"cycles":`...)
	b = strconv.AppendInt(b, int64(r.Cycles), 10)
	b = append(b, `,"comms":`...)
	b = strconv.AppendInt(b, int64(r.Comms), 10)
	b = append(b, `,"placements":`...)
	if r.Placements == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range r.Placements {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"cluster":`...)
			b = strconv.AppendInt(b, int64(p.Cluster), 10)
			b = append(b, `,"fu":`...)
			b = strconv.AppendInt(b, int64(p.FU), 10)
			b = append(b, `,"start":`...)
			b = strconv.AppendInt(b, int64(p.Start), 10)
			b = append(b, `,"latency":`...)
			b = strconv.AppendInt(b, int64(p.Latency), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(r.CommList) > 0 {
		b = append(b, `,"commList":[`...)
		for i, c := range r.CommList {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"value":`...)
			b = strconv.AppendInt(b, int64(c.Value), 10)
			b = append(b, `,"from":`...)
			b = strconv.AppendInt(b, int64(c.From), 10)
			b = append(b, `,"to":`...)
			b = strconv.AppendInt(b, int64(c.To), 10)
			b = append(b, `,"depart":`...)
			b = strconv.AppendInt(b, int64(c.Depart), 10)
			b = append(b, `,"arrive":`...)
			b = strconv.AppendInt(b, int64(c.Arrive), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	for _, f := range [...]struct {
		set bool
		key string
	}{
		{r.CacheHit, `,"cacheHit":true`},
		{r.Shared, `,"shared":true`},
		{r.Degraded, `,"degraded":true`},
		{r.PeerHit, `,"peerHit":true`},
	} {
		if f.set {
			b = append(b, f.key...)
		}
	}
	if len(r.Attempts) > 0 {
		j, err := json.Marshal(r.Attempts)
		if err != nil {
			return b, err
		}
		b = append(b, `,"attempts":`...)
		b = append(b, j...)
	}
	b = append(b, `,"elapsedMs":`...)
	b, err := appendJSONFloat(b, r.ElapsedMs)
	if err != nil {
		return b, err
	}
	if r.Trace != nil {
		j, err := json.Marshal(r.Trace)
		if err != nil {
			return b, err
		}
		b = append(b, `,"trace":`...)
		b = append(b, j...)
	}
	return append(b, "}\n"...), nil
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest 'f' form, or 'e' with a one-digit exponent cleaned of its
// leading zero outside [1e-6, 1e21). NaN and infinities have no JSON form.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("server: unsupported float %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendJSONString appends s quoted as encoding/json quotes a string with
// HTML escaping on: short escapes for \b \f \n \r \t, \u00XX for other
// control bytes and for < > &, \ufffd for each invalid UTF-8 byte, and
// U+2028 and U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// jsonSafe marks the ASCII bytes a JSON string holds unescaped under HTML
// escaping: printable, and none of " \ < > &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()
