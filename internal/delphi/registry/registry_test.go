package registry

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/delphi"
)

// quickModel trains a small deterministic model, cached across tests.
var quickModelOnce sync.Once
var quickModelVal *delphi.Model

func quickModel(t testing.TB) *delphi.Model {
	t.Helper()
	quickModelOnce.Do(func() {
		m, err := delphi.Train(delphi.TrainOptions{
			SeriesPerFeature: 2, SeriesLen: 64, Epochs: 3, Noise: 0.2, Seed: 42,
		})
		if err != nil {
			t.Fatalf("training quick model: %v", err)
		}
		quickModelVal = m
	})
	return quickModelVal
}

// evalWindows produces deterministic raw windows for exact-output checks.
func evalWindows() [][]float64 {
	ws := make([][]float64, 0, 8)
	for s := 0; s < 8; s++ {
		w := make([]float64, delphi.WindowSize)
		for i := range w {
			w[i] = math.Sin(float64(s*7+i))*10 + float64(s)
		}
		ws = append(ws, w)
	}
	return ws
}

func TestCodecRoundTripBitIdentical(t *testing.T) {
	m := quickModel(t)
	frame, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeModel(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical fixed point: re-encoding the decoded model reproduces the
	// frame byte for byte.
	re, err := EncodeModel(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, re) {
		t.Fatal("re-encode of decoded model is not byte-identical")
	}
	// Fused engine outputs of the loaded model are exact-equal to the
	// in-memory model's — the registry must not perturb a single bit.
	for _, w := range evalWindows() {
		want, err1 := m.Predict(w)
		got, err2 := back.Predict(w)
		if err1 != nil || err2 != nil {
			t.Fatalf("predict: %v / %v", err1, err2)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("loaded model diverges: %v vs %v", want, got)
		}
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	m := quickModel(t)
	frame, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"bad magic", []byte("NOPE"), ErrBadMagic},
		{"header only", []byte(magic), ErrTruncated},
		{"torn tail", frame[:len(frame)-3], ErrTruncated},
		{"trailing garbage", append(append([]byte{}, frame...), 0xFF), ErrTruncated},
		{"flipped payload bit", flip(frame, headerSize+2), ErrChecksum},
	}
	for _, tc := range cases {
		if _, err := DecodeModel(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Intact frame around a structurally invalid model: ErrBadModel.
	bad, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"features":[],"combiner":{"w":[],"b":[]}}`)
	bad = bad[:len(magic)]
	bad = appendFrame(bad, payload)
	if _, err := DecodeModel(bad); !errors.Is(err, ErrBadModel) {
		t.Errorf("invalid model payload: got %v, want ErrBadModel", err)
	}
}

func TestRegistryVersioningPromoteRollback(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := quickModel(t)

	if _, err := r.ActiveVersion("nvme0"); !errors.Is(err, ErrNoActive) {
		t.Fatalf("fresh class active: %v", err)
	}
	v1, err := r.Save("nvme0", m)
	if err != nil || v1 != 1 {
		t.Fatalf("first save: v%d, %v", v1, err)
	}
	v2, err := r.Save("nvme0", m)
	if err != nil || v2 != 2 {
		t.Fatalf("second save: v%d, %v", v2, err)
	}
	vs, err := r.versionsLocked(r.classDir("nvme0"))
	if err != nil || len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Fatalf("versions: %v, %v", vs, err)
	}
	// Saving never promotes.
	if _, err := r.ActiveVersion("nvme0"); !errors.Is(err, ErrNoActive) {
		t.Fatalf("save must not promote: %v", err)
	}
	if err := r.Promote("nvme0", 2); err != nil {
		t.Fatal(err)
	}
	if v, err := r.ActiveVersion("nvme0"); err != nil || v != 2 {
		t.Fatalf("active after promote: v%d, %v", v, err)
	}
	got, v, err := r.Active("nvme0")
	if err != nil || v != 2 {
		t.Fatalf("Active: v%d, %v", v, err)
	}
	for _, w := range evalWindows() {
		want, _ := m.Predict(w)
		have, _ := got.Predict(w)
		if math.Float64bits(want) != math.Float64bits(have) {
			t.Fatal("active model diverges from saved model")
		}
	}
	// Rolling back is promoting an older version; one that was never stored
	// is ErrNoVersion and leaves ACTIVE untouched.
	if err := r.Promote("nvme0", 1); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if err := r.Promote("nvme0", 3); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("promote of a missing version: %v", err)
	}
	if v, _ := r.ActiveVersion("nvme0"); v != 1 {
		t.Fatalf("failed promote moved ACTIVE to v%d", v)
	}

	// Promotion refuses versions that no longer decode.
	path := filepath.Join(dir, "nvme0", "v000002.dm")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xA5
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote("nvme0", 2); !errors.Is(err, ErrChecksum) {
		t.Fatalf("promote of corrupt version: %v", err)
	}
	if v, _ := r.ActiveVersion("nvme0"); v != 1 {
		t.Fatalf("refused promote moved ACTIVE to v%d", v)
	}

	// Class namespaces are independent.
	if _, err := r.Save("hdd1", m); err != nil {
		t.Fatal(err)
	}
	if vs, _ := r.versionsLocked(r.classDir("hdd1")); len(vs) != 1 {
		t.Fatalf("hdd1 versions: %v", vs)
	}
	// Names that would escape the directory are rejected.
	for _, bad := range []string{"", "a/b", "..", "x y"} {
		if _, err := r.Save(bad, m); !errors.Is(err, ErrBadClass) {
			t.Errorf("class %q accepted", bad)
		}
	}
	if _, err := r.Load("nvme0", 99); !errors.Is(err, ErrNoVersion) {
		t.Fatalf("load missing version: %v", err)
	}
}

// flip copies b and flips one bit at index i.
func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x01
	return c
}

// appendFrame frames an arbitrary payload with a correct length and CRC —
// test helper for structurally-bad-but-intact frames.
func appendFrame(dst, payload []byte) []byte {
	dst = dst[:0]
	dst = append(dst, magic...)
	dst = append(dst, byte(len(payload)), byte(len(payload)>>8), byte(len(payload)>>16), byte(len(payload)>>24))
	dst = append(dst, payload...)
	c := crc32.ChecksumIEEE(payload)
	return append(dst, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
}

// TestConcurrentPromote promotes two versions of one class from many
// goroutines at once: every promote succeeds and ACTIVE names one of them.
func TestConcurrentPromote(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Save("nvme0", quickModel(t)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := r.Promote("nvme0", 1+(g+i)%2); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if v, err := r.ActiveVersion("nvme0"); err != nil || (v != 1 && v != 2) {
		t.Fatalf("active after concurrent promotes: v%d, %v", v, err)
	}
}
