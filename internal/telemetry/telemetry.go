// Package telemetry defines the core data model of Apollo: Metrics captured
// from resources, and the Information tuple (timestamp, value,
// predicted/measured) that flows through SCoRe as Facts and Insights.
//
// A Fact is the smallest unit within Apollo: the value of a given Metric
// captured from a particular hardware or software resource. An Insight is a
// high-level combination of one or more Facts and/or Insights.
package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Kind distinguishes the two types of Information in Apollo.
type Kind uint8

const (
	// KindFact marks Information captured directly from a resource.
	KindFact Kind = iota
	// KindInsight marks Information derived from other Information.
	KindInsight
)

// String returns "fact" or "insight".
func (k Kind) String() string {
	switch k {
	case KindFact:
		return "fact"
	case KindInsight:
		return "insight"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Source records whether an Information value was measured by polling the
// resource or predicted by the Delphi model between polls.
type Source uint8

const (
	// Measured marks values obtained by an actual monitor-hook poll.
	Measured Source = iota
	// Predicted marks values forecast by Delphi between polls.
	Predicted
)

// String returns "measured" or "predicted".
func (s Source) String() string {
	switch s {
	case Measured:
		return "measured"
	case Predicted:
		return "predicted"
	default:
		return fmt.Sprintf("source(%d)", uint8(s))
	}
}

// MetricID names a metric stream, e.g. "node3.nvme0.capacity". Each metric in
// a node is stored in a unique queue, so the ID doubles as the queue/topic
// name inside SCoRe and the table name inside the Apollo Query Engine.
type MetricID string

// Info is the Information tuple stored at every SCoRe vertex:
// (timestamp, fact/insight value, predicted/measured).
type Info struct {
	// Metric identifies the stream this tuple belongs to.
	Metric MetricID
	// Timestamp is nanoseconds since the Unix epoch at capture/derivation.
	Timestamp int64
	// Value is the metric or insight value.
	Value float64
	// Kind says whether this is a Fact or an Insight.
	Kind Kind
	// Source says whether the value was Measured or Predicted.
	Source Source
}

// String renders the tuple for logs and CLI output.
func (i Info) String() string {
	return fmt.Sprintf("%s{%s @%d = %g (%s)}", i.Kind, i.Metric, i.Timestamp, i.Value, i.Source)
}

// NewFact builds a measured Fact tuple.
func NewFact(m MetricID, ts int64, v float64) Info {
	return Info{Metric: m, Timestamp: ts, Value: v, Kind: KindFact, Source: Measured}
}

// NewPredictedFact builds a Delphi-predicted Fact tuple.
func NewPredictedFact(m MetricID, ts int64, v float64) Info {
	return Info{Metric: m, Timestamp: ts, Value: v, Kind: KindFact, Source: Predicted}
}

// Summary is the fold of a run of tuples: how many, the sum, least and
// greatest of their Values, and their least and greatest Timestamps. The
// zero value folds nothing. Min and Max do not depend on the order tuples
// arrive in: a NaN Value makes both NaN, as it makes Sum, and -0 ranks
// below +0. Sum does: it adds in arrival order.
type Summary struct {
	Count         int64
	Sum, Min, Max float64
	First, Last   int64
}

// Add folds one tuple in.
func (s *Summary) Add(in Info) {
	if s.Count == 0 {
		s.Min, s.Max, s.First, s.Last = in.Value, in.Value, in.Timestamp, in.Timestamp
	}
	s.Count++
	s.Sum += in.Value
	s.Min, s.Max = min(s.Min, in.Value), max(s.Max, in.Value)
	s.First, s.Last = min(s.First, in.Timestamp), max(s.Last, in.Timestamp)
}

// Merge folds the run o summarizes in after the runs s already holds.
func (s *Summary) Merge(o Summary) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		s.Min, s.Max, s.First, s.Last = o.Min, o.Max, o.First, o.Last
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.Min, s.Max = min(s.Min, o.Min), max(s.Max, o.Max)
	s.First, s.Last = min(s.First, o.First), max(s.Last, o.Last)
}

// Binary wire format (little endian):
//
//	u16  metric length
//	[..] metric bytes
//	i64  timestamp
//	f64  value
//	u8   kind
//	u8   source
//	u32  crc32 (IEEE) of everything above
//
// The CRC guards network transport against truncation.
const (
	fixedTail   = 8 + 8 + 1 + 1 + 4
	maxMetricID = 1 << 16
)

// ErrCorrupt is returned when decoding fails a CRC or length check.
var ErrCorrupt = errors.New("telemetry: corrupt encoding")

// EncodedSize returns the number of bytes MarshalBinary will produce.
func (i Info) EncodedSize() int { return 2 + len(i.Metric) + fixedTail }

// AppendBinary appends the binary encoding of i to dst and returns the
// extended slice. It never fails for metric IDs shorter than 64 KiB.
func (i Info) AppendBinary(dst []byte) ([]byte, error) {
	if len(i.Metric) >= maxMetricID {
		return dst, fmt.Errorf("telemetry: metric id too long (%d bytes)", len(i.Metric))
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(i.Metric)))
	dst = append(dst, i.Metric...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(i.Timestamp))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(i.Value))
	dst = append(dst, byte(i.Kind), byte(i.Source))
	sum := crc32.ChecksumIEEE(dst[start:])
	dst = binary.LittleEndian.AppendUint32(dst, sum)
	return dst, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (i Info) MarshalBinary() ([]byte, error) {
	return i.AppendBinary(make([]byte, 0, i.EncodedSize()))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (i *Info) UnmarshalBinary(b []byte) error {
	_, err := i.decode(b)
	return err
}

func (i *Info) decode(b []byte) (int, error) {
	if len(b) < 2 {
		return 0, ErrCorrupt
	}
	ml := int(binary.LittleEndian.Uint16(b))
	total := 2 + ml + fixedTail
	if len(b) < total {
		return 0, ErrCorrupt
	}
	body := b[:total-4]
	want := binary.LittleEndian.Uint32(b[total-4:])
	if crc32.ChecksumIEEE(body) != want {
		return 0, ErrCorrupt
	}
	p := 2
	// Decoding over a tuple of the same metric keeps its string: a consumer
	// that reuses one Info per stream decodes without allocating.
	if m := b[p : p+ml]; string(m) != string(i.Metric) {
		i.Metric = MetricID(m)
	}
	p += ml
	i.Timestamp = int64(binary.LittleEndian.Uint64(b[p:]))
	p += 8
	i.Value = math.Float64frombits(binary.LittleEndian.Uint64(b[p:]))
	p += 8
	i.Kind = Kind(b[p])
	i.Source = Source(b[p+1])
	return total, nil
}

// infoJSON is the stable JSON shape for Info.
type infoJSON struct {
	Metric    string  `json:"metric"`
	Timestamp int64   `json:"timestamp"`
	Value     float64 `json:"value"`
	Kind      string  `json:"kind"`
	Source    string  `json:"source"`
}

// MarshalJSON implements json.Marshaler with human-readable kind/source.
func (i Info) MarshalJSON() ([]byte, error) {
	return json.Marshal(infoJSON{
		Metric:    string(i.Metric),
		Timestamp: i.Timestamp,
		Value:     i.Value,
		Kind:      i.Kind.String(),
		Source:    i.Source.String(),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (i *Info) UnmarshalJSON(b []byte) error {
	var j infoJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	i.Metric = MetricID(j.Metric)
	i.Timestamp = j.Timestamp
	i.Value = j.Value
	switch j.Kind {
	case "fact":
		i.Kind = KindFact
	case "insight":
		i.Kind = KindInsight
	default:
		return fmt.Errorf("telemetry: unknown kind %q", j.Kind)
	}
	switch j.Source {
	case "measured":
		i.Source = Measured
	case "predicted":
		i.Source = Predicted
	default:
		return fmt.Errorf("telemetry: unknown source %q", j.Source)
	}
	return nil
}
