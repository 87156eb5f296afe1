package archive

import (
	"repro/internal/telemetry"
	"repro/internal/telemetry/block"
)

// Every archive data file, the active segment included, is a sequence of
// block frames (package block), whose tier byte is the file's tier.

// scanBuf is scratch for one read or one block write: the bytes read, a
// copy of the open block, and the reader decoding them, which keeps the
// metric names it decoded; for an aggregate also a copy of the active
// segment's entries not yet in its sidecar, and the entries read back.
type scanBuf struct {
	data, tail, pend []byte
	frame            block.Reader
	fine             segIndex
}

// scanBufs is a free list of scratch. Reads and block writes take one and
// give it back, so a steady stream of them allocates nothing: unlike a
// sync.Pool, the list keeps what it holds across collections (and, under
// the race detector, does not drop a quarter of it). It holds eight, more
// than a service reads and writes archives at once (a query client or two,
// the compactor, the appending vertices' turns at a block write); scratch
// past that is allocated and dropped.
var scanBufs = make(chan *scanBuf, 8)

func getScanBuf() *scanBuf {
	select {
	case sc := <-scanBufs:
		return sc
	default:
		return new(scanBuf)
	}
}

// release returns sc to the free list, unless the list is full or sc grew
// past 1 MiB of bytes.
func (sc *scanBuf) release() {
	if cap(sc.data)+cap(sc.tail) <= 1<<20 {
		select {
		case scanBufs <- sc:
		default:
		}
	}
}

// encodeBlocks renders infos as a sequence of blocks of at most
// block.MaxRecords each, returning the file bytes and its index; only a
// raw-tier file's index keeps the blocks' folds, since Aggregate decodes
// roll-ups.
func encodeBlocks(tier uint8, infos []telemetry.Info) ([]byte, *segIndex) {
	var (
		out  []byte
		b    block.Writer
		fold telemetry.Summary
	)
	si := &segIndex{folded: tier == TierRaw}
	for i, in := range infos {
		b.Add(in)
		fold.Add(in)
		si.note(in.Timestamp)
		if b.Len() == block.MaxRecords || i == len(infos)-1 {
			si.add(int64(len(out)), fold)
			out = b.AppendFrame(out, tier)
			b.Reset()
			fold = telemetry.Summary{}
		}
	}
	si.size = int64(len(out))
	return out, si
}

// scanBlocks streams the in-window records of data's blocks, decoding
// through sc; in sorted data it decodes nothing past the first record after
// to. A region that does not decode is skipped by resynchronizing on the
// next block that does, and counted; an undecodable run with nothing after
// it is a torn write — silent — only where the caller says data ends at the
// tail of the highest raw-tier segment. A crafted frame that fails
// mid-block counts too.
func scanBlocks(data []byte, sc *scanBuf, sorted, tornTailOK bool, from, to int64, fn func(telemetry.Info) error) (corrupt int, err error) {
	for len(data) > 0 {
		f := &sc.frame
		n, derr := f.Open(data)
		if derr != nil {
			skip := block.Resync(data[1:])
			if skip < 0 {
				if tornTailOK {
					return corrupt, nil
				}
				return corrupt + 1, nil
			}
			corrupt++
			data = data[1+skip:]
			continue
		}
		data = data[n:]
		for f.Next() {
			in := f.Info()
			if in.Timestamp > to {
				if sorted {
					return corrupt, nil
				}
				continue
			}
			if in.Timestamp < from {
				continue
			}
			if err := fn(in); err != nil {
				return corrupt, err
			}
		}
		if f.Err() != nil {
			corrupt++
		}
	}
	return corrupt, nil
}
