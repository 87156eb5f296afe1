// Package registry is Delphi's versioned model store: per-device-class
// namespaces of immutable, CRC-framed model files with an atomically updated
// active-version pointer. It is the piece that lets thousands of devices stop
// sharing one combiner — every class carries its own weight lineage,
// promoted and rolled back independently, and the fused inference engine is
// recompiled lazily on promotion so the steady-state predict path never sees
// a half-written model. Retraining lives with the classes it serves, in
// core's Delphi fleet.
package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/delphi"
)

// Frame layout: magic | uint32 LE payload length | payload (canonical model
// JSON) | uint32 LE CRC-32 (IEEE) of the payload. The JSON inside is
// delphi.(*Model).EncodeJSON, whose float64 encoding round-trips exactly —
// so decode→re-encode reproduces the frame byte for byte, which is what the
// fuzz target and the bit-identical promotion gate both lean on.
const (
	magic      = "ADM1" // Apollo Delphi Model, frame v1
	headerSize = len(magic) + 4
	crcSize    = 4
)

// Typed decode errors. Every malformed input maps onto exactly one of these
// (possibly wrapped with detail); DecodeModel never panics.
var (
	// ErrBadMagic: the file does not start with the frame magic.
	ErrBadMagic = errors.New("registry: bad magic")
	// ErrTruncated: the file ends before the framed length says it should.
	ErrTruncated = errors.New("registry: truncated frame")
	// ErrChecksum: the payload does not match its CRC — torn write or bit rot.
	ErrChecksum = errors.New("registry: checksum mismatch")
	// ErrBadModel: the frame is intact but the payload is not a valid model.
	ErrBadModel = errors.New("registry: bad model payload")
)

// EncodeModel frames a trained model for storage.
func EncodeModel(m *delphi.Model) ([]byte, error) {
	payload, err := m.EncodeJSON()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, headerSize+len(payload)+crcSize)
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return buf, nil
}

// DecodeModel validates a frame end to end — magic, length, checksum, model
// shape — and rebuilds the model. Corrupt or truncated input returns a typed
// error; trailing garbage after the CRC is rejected as ErrTruncated (a frame
// is the whole file, so extra bytes mean the file is not what was written).
func DecodeModel(b []byte) (*delphi.Model, error) {
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	if len(b) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(b))
	}
	n := binary.LittleEndian.Uint32(b[len(magic):headerSize])
	total := int64(headerSize) + int64(n) + crcSize
	if int64(len(b)) < total {
		return nil, fmt.Errorf("%w: frame wants %d bytes, have %d", ErrTruncated, total, len(b))
	}
	if int64(len(b)) > total {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrTruncated, int64(len(b))-total)
	}
	payload := b[headerSize : headerSize+int(n)]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[len(b)-crcSize:]); got != want {
		return nil, fmt.Errorf("%w: crc %08x, frame says %08x", ErrChecksum, got, want)
	}
	m, err := delphi.DecodeJSON(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	return m, nil
}
