package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if KindFact.String() != "fact" || KindInsight.String() != "insight" {
		t.Fatalf("kind strings wrong: %s %s", KindFact, KindInsight)
	}
	if got := Kind(9).String(); got != "kind(9)" {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestSourceString(t *testing.T) {
	if Measured.String() != "measured" || Predicted.String() != "predicted" {
		t.Fatalf("source strings wrong: %s %s", Measured, Predicted)
	}
	if got := Source(7).String(); got != "source(7)" {
		t.Fatalf("unknown source = %q", got)
	}
}

func TestConstructors(t *testing.T) {
	cases := []struct {
		info Info
		kind Kind
		src  Source
	}{
		{NewFact("m", 1, 2), KindFact, Measured},
		{NewPredictedFact("m", 1, 2), KindFact, Predicted},
	}
	for _, c := range cases {
		if c.info.Kind != c.kind || c.info.Source != c.src {
			t.Errorf("constructor produced %v, want kind=%v source=%v", c.info, c.kind, c.src)
		}
		if c.info.Metric != "m" || c.info.Timestamp != 1 || c.info.Value != 2 {
			t.Errorf("fields wrong: %v", c.info)
		}
	}
}

func TestInfoTimeAndString(t *testing.T) {
	in := NewFact("node1.cap", 1_000_000_000, 42)
	s := in.String()
	if !strings.Contains(s, "node1.cap") || !strings.Contains(s, "measured") {
		t.Fatalf("String() = %q", s)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	in := Info{Metric: "node1.nvme.capacity", Timestamp: 1234567890, Value: math.Pi, Kind: KindInsight, Source: Predicted}
	b, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != in.EncodedSize() {
		t.Fatalf("len=%d want %d", len(b), in.EncodedSize())
	}
	var out Info
	if err := out.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %v != %v", out, in)
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(metric string, ts int64, v float64, kind, src bool) bool {
		if len(metric) >= maxMetricID {
			metric = metric[:1000]
		}
		in := Info{Metric: MetricID(metric), Timestamp: ts, Value: v}
		if kind {
			in.Kind = KindInsight
		}
		if src {
			in.Source = Predicted
		}
		b, err := in.MarshalBinary()
		if err != nil {
			return false
		}
		out, n, err := DecodeInfo(b)
		if err != nil || n != len(b) {
			return false
		}
		// NaN != NaN; compare bit patterns instead.
		return out.Metric == in.Metric && out.Timestamp == in.Timestamp &&
			math.Float64bits(out.Value) == math.Float64bits(in.Value) &&
			out.Kind == in.Kind && out.Source == in.Source
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeStream(t *testing.T) {
	// Concatenate several encodings and decode them back in order.
	infos := []Info{
		NewFact("a", 1, 1.5),
		{Metric: "bb", Timestamp: 2, Value: -2.5, Kind: KindInsight, Source: Measured},
		NewPredictedFact("ccc", 3, 0),
	}
	var buf []byte
	for _, in := range infos {
		var err error
		buf, err = in.AppendBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; len(buf) > 0; k++ {
		out, n, err := DecodeInfo(buf)
		if err != nil {
			t.Fatalf("entry %d: %v", k, err)
		}
		if out != infos[k] {
			t.Fatalf("entry %d: %v != %v", k, out, infos[k])
		}
		buf = buf[n:]
	}
}

func TestDecodeCorrupt(t *testing.T) {
	in := NewFact("metric", 10, 20)
	b, _ := in.MarshalBinary()

	// Truncated header.
	if _, _, err := DecodeInfo(b[:1]); err != ErrCorrupt {
		t.Fatalf("short header: err=%v", err)
	}
	// Truncated body.
	if _, _, err := DecodeInfo(b[:len(b)-3]); err != ErrCorrupt {
		t.Fatalf("short body: err=%v", err)
	}
	// Flipped payload bit must fail CRC.
	bad := append([]byte(nil), b...)
	bad[5] ^= 0xff
	if _, _, err := DecodeInfo(bad); err != ErrCorrupt {
		t.Fatalf("bit flip: err=%v", err)
	}
}

func TestMetricIDTooLong(t *testing.T) {
	in := Info{Metric: MetricID(strings.Repeat("x", maxMetricID))}
	if _, err := in.MarshalBinary(); err == nil {
		t.Fatal("expected error for oversized metric id")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := Info{Metric: "tier.remaining", Timestamp: 99, Value: 123.456, Kind: KindInsight, Source: Predicted}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"insight"`) || !strings.Contains(string(b), `"predicted"`) {
		t.Fatalf("json = %s", b)
	}
	var out Info
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("%v != %v", out, in)
	}
}

func TestJSONRejectsUnknownEnums(t *testing.T) {
	var out Info
	if err := json.Unmarshal([]byte(`{"metric":"m","kind":"blob","source":"measured"}`), &out); err == nil {
		t.Fatal("expected kind error")
	}
	if err := json.Unmarshal([]byte(`{"metric":"m","kind":"fact","source":"guessed"}`), &out); err == nil {
		t.Fatal("expected source error")
	}
	if err := json.Unmarshal([]byte(`{`), &out); err == nil {
		t.Fatal("expected syntax error")
	}
}

func BenchmarkMarshalBinary(b *testing.B) {
	in := NewFact("node1.nvme0.capacity", 1234567890, 42.5)
	buf := make([]byte, 0, in.EncodedSize())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		var err error
		buf, err = in.AppendBinary(buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalBinary(b *testing.B) {
	in := NewFact("node1.nvme0.capacity", 1234567890, 42.5)
	buf, _ := in.MarshalBinary()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out Info
		if err := out.UnmarshalBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}
