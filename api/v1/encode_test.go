package apiv1

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// refValue and refResponse are the reflective encoding the append encoder
// replaced, kept as the reference it is compared against.
type refValue Value

func (v refValue) MarshalJSON() ([]byte, error) {
	switch v.Kind {
	case ValueInt:
		return json.Marshal(v.Int)
	case ValueFloat:
		return json.Marshal(v.Float)
	default:
		return json.Marshal(v.Str)
	}
}

type refResponse struct {
	Columns []string     `json:"columns"`
	Rows    [][]refValue `json:"rows"`
}

func reference(r QueryResponse) ([]byte, error) {
	ref := refResponse{Columns: r.Columns}
	if r.Rows != nil {
		ref.Rows = make([][]refValue, len(r.Rows))
		for i, row := range r.Rows {
			if row != nil {
				ref.Rows[i] = make([]refValue, len(row))
				for j, v := range row {
					ref.Rows[i][j] = refValue(v)
				}
			}
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(ref)
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), err
}

// TestAppendJSONMatchesEncodingJSON: the append encoder writes the bytes
// json.Encoder writes, over seeded responses and subscription frames that
// dwell on the float format's edges and on every class of string escape, and
// fails where it fails.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 9.99e20, 1.5e-9, -2e-10, 1e-300,
		5e-324, 2.2250738585072009e-308, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, 1e6, 100, float64(1 << 53)}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1700000000000000000}
	strs := []string{"", "metric", "MAX(Timestamp)", "a<b>c&d", `quote"back\slash`, "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f", "héllo wörld ✓ 日本",
		"line\u2028sep\u2029", "bad\xffutf8\xc3", "\xe2\x80", "node-3.nvme0.capacity_total"}
	randString := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			switch rng.Intn(4) {
			case 0:
				b[i] = byte(rng.Intn(256))
			case 1:
				b[i] = byte(rng.Intn(0x30))
			default:
				b[i] = byte('a' + rng.Intn(26))
			}
		}
		return string(b)
	}
	value := func() Value {
		switch rng.Intn(9) {
		case 0:
			return IntValue(ints[rng.Intn(len(ints))])
		case 1:
			return IntValue(rng.Int63() - rng.Int63())
		case 2:
			return FloatValue(floats[rng.Intn(len(floats))])
		case 3:
			return FloatValue(math.Float64frombits(rng.Uint64())) // any bit pattern, NaN and Inf included
		case 4:
			return FloatValue(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)))
		case 5:
			return FloatValue(float64(rng.Intn(2000)) / 8)
		case 6:
			return StringValue(strs[rng.Intn(len(strs))])
		default:
			return StringValue(randString())
		}
	}
	var buf []byte
	failures := 0
	for n := 0; n < 25000; n++ {
		var r QueryResponse
		if rng.Intn(50) > 0 {
			r.Columns = make([]string, rng.Intn(4))
			for i := range r.Columns {
				r.Columns[i] = strs[rng.Intn(len(strs))]
			}
		}
		if rng.Intn(50) > 0 {
			r.Rows = make([][]Value, rng.Intn(4))
			for i := range r.Rows {
				if rng.Intn(50) > 0 {
					r.Rows[i] = make([]Value, rng.Intn(4))
					for j := range r.Rows[i] {
						r.Rows[i][j] = value()
					}
				}
			}
		}
		want, werr := reference(r)
		var err error
		buf, err = r.AppendJSON(buf[:0])
		if (err == nil) != (werr == nil) {
			t.Fatalf("%+v: append encoder err %v, encoding/json err %v", r, err, werr)
		}
		if err != nil {
			failures++
			continue
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("%+v:\n got %s\nwant %s", r, buf, want)
		}
		var back QueryResponse
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("%s does not decode: %v", buf, err)
		}
	}
	if failures == 0 {
		t.Fatal("the corpus held no NaN or Inf; the failure path went untested")
	}
	// Subscription frames: tuples (with and without a stream ID), error and
	// goaway frames, over the same floats and strings.
	failures = 0
	types := []FrameType{FrameTuple, FrameError, FrameGoaway}
	codes := []Code{CodeSlowConsumer, CodeDraining, CodeUnavailable, Code(strs[3])}
	for n := 0; n < 25000; n++ {
		fr := Frame{Type: types[rng.Intn(len(types))]}
		if fr.Type == FrameTuple || rng.Intn(20) == 0 {
			v := value()
			switch {
			case rng.Intn(50) == 0:
				v.Float = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			case v.Kind != ValueFloat:
				v.Float = float64(v.Int)
			}
			fr.Tuple = &Tuple{Metric: strs[rng.Intn(len(strs))], TimestampNS: rng.Int63() - rng.Int63(), Value: v.Float,
				Kind: randString(), Source: strs[rng.Intn(len(strs))]}
			if rng.Intn(4) > 0 {
				fr.Tuple.StreamID = rng.Uint64() >> rng.Intn(64)
			}
			if rng.Intn(2) == 0 {
				fr.Tuple.Metric = randString()
			}
		}
		if fr.Type != FrameTuple || rng.Intn(20) == 0 {
			fr.Error = &Error{Code: codes[rng.Intn(len(codes))], Message: randString() + strs[rng.Intn(len(strs))], Retryable: rng.Intn(2) == 0}
		}
		want, werr := json.Marshal(fr)
		var err error
		buf, err = fr.AppendJSON(buf[:0])
		if (err == nil) != (werr == nil) {
			t.Fatalf("%+v: append encoder err %v, encoding/json err %v", fr, err, werr)
		}
		if err != nil {
			failures++
			continue
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("%+v %+v %+v:\n got %s\nwant %s", fr, fr.Tuple, fr.Error, buf, want)
		}
	}
	if failures == 0 {
		t.Fatal("no tuple frame held NaN or Inf; the failure path went untested")
	}
	// Reflection over the public types goes through the same encoder.
	r := QueryResponse{Columns: []string{"a<b"}, Rows: [][]Value{{FloatValue(1e-7), StringValue("x\u2028"), IntValue(-3)}}}
	viaJSON, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if direct, _ := r.AppendJSON(nil); !bytes.Equal(viaJSON, direct) {
		t.Fatalf("json.Marshal %s, AppendJSON %s", viaJSON, direct)
	}
	if _, err := json.Marshal(FloatValue(math.NaN())); err == nil {
		t.Fatal("NaN marshalled")
	}
}
