package skyline

import (
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/dse"
)

// appendExploreLine appends one /explore NDJSON line — the bytes
// encoding/json would produce for ExploreCandidateJSON, newline
// included — without reflection or a per-line allocation. Field order
// and omitempty follow the struct tags: sensor is omitted when empty,
// gap_factor when zero or non-finite, objective and metrics on plain
// explorations (or when the metric columns do not line up). A
// non-finite action_hz is written as 0, as the struct form zeroes it.
// The differential test and FuzzExploreLine hold it byte-equal to
// encoding/json over exploreLine, and a test holds it to zero
// allocations.
func appendExploreLine(dst []byte, c dse.Candidate, objName string, cols []dse.ObjectiveColumn) []byte {
	an := &c.Analysis
	dst = append(dst, `{"name":`...)
	dst = appendJSONString(dst, c.Name())
	dst = append(dst, `,"uav":`...)
	dst = appendJSONString(dst, c.Selection.UAV)
	dst = append(dst, `,"compute":`...)
	dst = appendJSONString(dst, c.Selection.Compute)
	dst = append(dst, `,"algorithm":`...)
	dst = appendJSONString(dst, c.Selection.Algorithm)
	if c.Selection.Sensor != "" {
		dst = append(dst, `,"sensor":`...)
		dst = appendJSONString(dst, c.Selection.Sensor)
	}
	dst = append(dst, `,"v_safe_ms":`...)
	dst = appendJSONFloat(dst, an.SafeVelocity.MetersPerSecond())
	dst = append(dst, `,"action_hz":`...)
	if v := an.Action.Hertz(); finite(v) {
		dst = appendJSONFloat(dst, v)
	} else {
		dst = append(dst, '0')
	}
	dst = append(dst, `,"knee_hz":`...)
	dst = appendJSONFloat(dst, an.Knee.Throughput.Hertz())
	dst = append(dst, `,"power_w":`...)
	dst = appendJSONFloat(dst, c.Power.Watts())
	dst = append(dst, `,"payload_g":`...)
	dst = appendJSONFloat(dst, an.Config.Payload.Grams())
	dst = append(dst, `,"bound":`...)
	dst = appendJSONString(dst, an.Bound.String())
	dst = append(dst, `,"class":`...)
	dst = appendJSONString(dst, an.Class.String())
	if g := an.GapFactor; g != 0 && finite(g) {
		dst = append(dst, `,"gap_factor":`...)
		dst = appendJSONFloat(dst, g)
	}
	if objName != "" && len(c.Metrics) == len(cols) {
		dst = append(dst, `,"objective":`...)
		dst = appendJSONString(dst, objName)
		if len(cols) > 0 {
			dst = append(dst, `,"metrics":[`...)
			for i, col := range cols {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, `{"name":`...)
				dst = appendJSONString(dst, col.Name)
				dst = append(dst, `,"value":`...)
				dst = appendJSONFloat(dst, c.Metrics[i])
				dst = append(dst, '}')
			}
			dst = append(dst, ']')
		}
	}
	return append(dst, "}\n"...)
}

// appendErrorLine appends the terminal {"error":…} line a stream ends
// with when the engine fails after the header is sent.
func appendErrorLine(dst []byte, err error) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendJSONString(dst, err.Error())
	return append(dst, "}\n"...)
}

func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// appendJSONFloat appends v as encoding/json writes a float64 — the
// shortest round-tripping form, in exponent notation below 1e-6 and
// from 1e21 up, with a two-digit negative exponent trimmed (e-07 →
// e-7) — and non-finite values as null. It is the one place JSON
// float formatting is decided: JSONFloat.MarshalJSON delegates here.
func appendJSONFloat(dst []byte, v float64) []byte {
	if !finite(v) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// htmlSafe[b] reports whether byte b is written as itself inside a
// JSON string under encoding/json's default (HTML-safe) escaping: every
// printable ASCII byte except quote, backslash, < > and &. Bytes from
// utf8.RuneSelf up are false and take the rune path.
var htmlSafe = func() (safe [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

// appendJSONString appends s as a JSON string with encoding/json's
// default (HTML-safe) escaping: quote, backslash and the short control
// escapes as \" \\ \b \f \n \r \t; other control bytes and < > & as
// \u00XX; U+2028 and U+2029 as \u2028 and \u2029; and each byte of
// invalid UTF-8 as \ufffd. Runs of safe bytes are copied with one
// append.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if htmlSafe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
