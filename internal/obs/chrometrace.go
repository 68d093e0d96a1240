package obs

import (
	"io"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// chunkSize is how much encoded trace WriteChromeTrace buffers before
// it hands the bytes to the writer.
const chunkSize = 48 << 10

// WriteChromeTrace renders spans as Chrome trace-event JSON (the format
// Perfetto and chrome://tracing load). Each invocation becomes its own
// thread track (tid = invocation id), so a multi-tenant run renders as
// a timeline of overlapping invocations; spans nest by time within a
// track, and the alpha-search span's args carry the full Explain record
// (measured R_C/R_G, category, curve, and the objective at every grid
// point). Timestamps are microseconds relative to the earliest span so
// the numbers stay small.
//
// Events are appended straight into one reused buffer that is flushed
// to w in chunks, so a write error can arrive after part of the trace
// has been written. The bytes are those encoding/json's Encoder writes
// for the equivalent event structs with map args (the reference in
// chrometrace_ref_test.go): field order and omitempty, sorted arg keys,
// its float format, non-finite floats as strings, HTML-safe escaping
// and a trailing newline (DESIGN.md §11).
func WriteChromeTrace(w io.Writer, spans []Span) error {
	var base time.Time
	for i := range spans {
		if base.IsZero() || spans[i].Start.Before(base) {
			base = spans[i].Start
		}
	}
	buf := make([]byte, 0, chunkSize+chunkSize/4)
	buf = append(buf, `{"traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"eas"}}`...)
	for i := range spans {
		buf = appendEvent(buf, &spans[i], base)
		if len(buf) >= chunkSize {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, "],\"displayTimeUnit\":\"ms\"}\n"...)
	_, err := w.Write(buf)
	return err
}

func micros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}

// appendEvent appends one span's event, preceded by its separator.
func appendEvent(buf []byte, sp *Span, base time.Time) []byte {
	buf = append(buf, `,{"name":`...)
	buf = appendString(buf, sp.Name)
	if sp.Kind == KindInstant {
		buf = append(buf, `,"cat":"eas","ph":"i","ts":`...)
		buf = appendFloat(buf, micros(sp.Start.Sub(base)))
	} else {
		buf = append(buf, `,"cat":"eas","ph":"X","ts":`...)
		buf = appendFloat(buf, micros(sp.Start.Sub(base)))
		buf = append(buf, `,"dur":`...)
		buf = appendFloat(buf, micros(sp.End.Sub(sp.Start)))
	}
	buf = append(buf, `,"pid":1,"tid":`...)
	buf = strconv.AppendUint(buf, sp.Invocation, 10)
	if sp.Kind == KindInstant {
		buf = append(buf, `,"s":"t"`...)
	}
	buf = append(buf, `,"args":`...)
	buf = appendArgs(buf, sp)
	return append(buf, '}')
}

// arg is one entry of a span's args object.
type arg struct {
	key  string
	kind argKind
	str  string
	num  float64
	id   uint64
}

type argKind uint8

const (
	argStr argKind = iota
	argNum
	argID
	argExplain
)

// maxStackArgs is how many args a span can carry before sorting them
// spills to the heap: the four identity keys, the explain record and
// the attrs of any span the scheduler emits fit.
const maxStackArgs = 16

// appendArgs appends the span's args as a JSON object whose keys are
// sorted the way encoding/json sorts map keys (bytewise). An attr
// overrides an identity key (kernel, invocation, span, parent) or an
// earlier attr of the same name, and the explain record overrides an
// attr named "explain", as successive stores into a map did.
func appendArgs(buf []byte, sp *Span) []byte {
	var stack [maxStackArgs]arg
	args := stack[:0]
	if sp.Kernel != "" {
		args = setArg(args, arg{key: "kernel", kind: argStr, str: sp.Kernel})
	}
	args = setArg(args, arg{key: "invocation", kind: argID, id: sp.Invocation})
	args = setArg(args, arg{key: "span", kind: argID, id: sp.ID})
	if sp.Parent != 0 {
		args = setArg(args, arg{key: "parent", kind: argID, id: sp.Parent})
	}
	for i := range sp.Attrs {
		a := &sp.Attrs[i]
		if a.IsNum {
			args = setArg(args, arg{key: a.Key, kind: argNum, num: a.Num})
		} else {
			args = setArg(args, arg{key: a.Key, kind: argStr, str: a.Str})
		}
	}
	if sp.Explain != nil {
		args = setArg(args, arg{key: "explain", kind: argExplain})
	}
	buf = append(buf, '{')
	for i := range args {
		if i > 0 {
			buf = append(buf, ',')
		}
		a := &args[i]
		buf = appendString(buf, a.key)
		buf = append(buf, ':')
		switch a.kind {
		case argStr:
			buf = appendString(buf, a.str)
		case argNum:
			buf = appendFloat(buf, a.num)
		case argID:
			buf = strconv.AppendUint(buf, a.id, 10)
		case argExplain:
			buf = appendExplain(buf, sp.Explain)
		}
	}
	return append(buf, '}')
}

// setArg inserts a into the key-sorted args, replacing an entry with
// the same key.
func setArg(args []arg, a arg) []arg {
	i := len(args)
	for i > 0 && args[i-1].key >= a.key {
		if args[i-1].key == a.key {
			args[i-1] = a
			return args
		}
		i--
	}
	args = append(args, arg{})
	copy(args[i+1:], args[i:])
	args[i] = a
	return args
}

// appendExplain appends the decision audit with its keys in sorted
// order. Grid objectives can legitimately be +Inf (offloading to a
// device with no measured throughput), which appendFloat renders as a
// string.
func appendExplain(buf []byte, ex *Explain) []byte {
	buf = append(buf, `{"alpha":`...)
	buf = appendFloat(buf, ex.Alpha)
	buf = append(buf, `,"alpha_step":`...)
	buf = appendFloat(buf, ex.AlphaStep)
	buf = append(buf, `,"category":`...)
	buf = appendString(buf, ex.Category)
	buf = append(buf, `,"curve":`...)
	buf = appendString(buf, ex.CurveID)
	buf = append(buf, `,"grid":[`...)
	for i, g := range ex.Grid {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"alpha":`...)
		buf = appendFloat(buf, g.Alpha)
		buf = append(buf, `,"objective":`...)
		buf = appendFloat(buf, g.Objective)
		buf = append(buf, '}')
	}
	buf = append(buf, `],"objective":`...)
	buf = appendFloat(buf, ex.Objective)
	buf = append(buf, `,"rc":`...)
	buf = appendFloat(buf, ex.RC)
	buf = append(buf, `,"refined":`...)
	buf = strconv.AppendBool(buf, ex.Refined)
	buf = append(buf, `,"rg":`...)
	buf = appendFloat(buf, ex.RG)
	return append(buf, '}')
}

// appendFloat formats f as encoding/json does — the shortest 'f' form,
// or 'e' outside [1e-6, 1e21) with a one-digit negative exponent
// unpadded — and non-finite values as the strings "+Inf", "-Inf" and
// "NaN", which encoding/json would reject.
func appendFloat(buf []byte, f float64) []byte {
	switch {
	case math.IsInf(f, 1):
		return append(buf, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(buf, `"-Inf"`...)
	case math.IsNaN(f):
		return append(buf, `"NaN"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(buf); buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json
// escapes it by default: quotes, backslashes and control characters,
// the HTML-sensitive <, > and &, U+2028 and U+2029, and each byte of
// invalid UTF-8 as U+FFFD.
func appendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '"', '\\':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
