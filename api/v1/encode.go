package apiv1

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The query answer and the subscription frame are the v1 bodies a busy
// gateway writes thousands of times a second, so they have append-based
// encoders: no reflection, no intermediate buffers, and the failure (a float
// JSON cannot carry) known before the first byte is written. The bytes are
// exactly encoding/json's — the compatibility tests compare the two —
// including its float format and HTML-safe string escaping.

// AppendJSON appends r's JSON encoding to dst. On error dst's contents past
// its original length are unspecified and nothing should be sent.
func (r *QueryResponse) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"columns":`...)
	if r.Columns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range r.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, c)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"rows":`...)
	if r.Rows == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i, row := range r.Rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = v.AppendJSON(dst); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}"...), nil
}

// AppendJSON appends f's JSON encoding to dst. A tuple whose value JSON
// cannot carry is an error, and dst's contents past its original length are
// then unspecified.
func (f *Frame) AppendJSON(dst []byte) ([]byte, error) {
	dst = appendString(append(dst, `{"type":`...), string(f.Type))
	if t := f.Tuple; t != nil {
		dst = appendString(append(dst, `,"tuple":{"metric":`...), t.Metric)
		dst = strconv.AppendInt(append(dst, `,"timestamp_ns":`...), t.TimestampNS, 10)
		var err error
		if dst, err = appendFloat(append(dst, `,"value":`...), t.Value); err != nil {
			return dst, err
		}
		dst = appendString(append(dst, `,"kind":`...), t.Kind)
		dst = appendString(append(dst, `,"source":`...), t.Source)
		if t.StreamID != 0 {
			dst = strconv.AppendUint(append(dst, `,"stream_id":`...), t.StreamID, 10)
		}
		dst = append(dst, '}')
	}
	if e := f.Error; e != nil {
		dst = appendString(append(dst, `,"error":{"code":`...), string(e.Code))
		dst = appendString(append(dst, `,"message":`...), e.Message)
		dst = strconv.AppendBool(append(dst, `,"retryable":`...), e.Retryable)
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// AppendJSON appends the cell as a native JSON scalar. NaN and the
// infinities have no JSON form and are an error.
func (v Value) AppendJSON(dst []byte) ([]byte, error) {
	switch v.Kind {
	case ValueInt:
		return strconv.AppendInt(dst, v.Int, 10), nil
	case ValueFloat:
		return appendFloat(dst, v.Float)
	default:
		return appendString(dst, v.Str), nil
	}
}

// appendFloat writes f the way encoding/json does: the shortest form that
// round-trips, exponent notation below 1e-6 and from 1e21 (as ES6 does), and
// a one-digit negative exponent without its leading zero.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("apiv1: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string with encoding/json's default
// escaping: control bytes, quote and backslash, the HTML-sensitive '<', '>', '&',
// U+2028/U+2029, and U+FFFD for invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
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
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
