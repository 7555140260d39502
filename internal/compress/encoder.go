// Package compress implements the paper's wavelet-based data compression
// scheme (§5, Figure 3): per-block forward wavelet transform, threshold
// decimation of detail coefficients, and lossless encoding. Each block is
// an independent extract→FWT→decimate→encode task producing its own
// stream, slotted by block index — the unit the node worker pool
// parallelizes while keeping the bytes schedule-independent.
package compress

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
)

// Encoder is the lossless back-end applied to the decimated coefficient
// streams. The paper uses ZLIB (ref. [23]) and notes zerotree/SPIHT coders
// as alternatives; this package provides zlib and a zero-run-length coder
// specialized for decimated (sparse) data.
type Encoder interface {
	// Name identifies the encoder in dump headers.
	Name() string
	// Encode appends the compressed form of src to dst and returns it.
	Encode(dst, src []byte) ([]byte, error)
	// Decode appends the decompressed form of src to dst and returns it.
	Decode(dst, src []byte) ([]byte, error)
}

// NewEncoder returns the encoder registered under name ("zlib", "rle",
// "sig" or "huff"). An encoder may keep coder state between calls, so one
// value serves one goroutine at a time.
func NewEncoder(name string) (Encoder, error) {
	switch name {
	case "zlib":
		return &Zlib{}, nil
	case "rle":
		return RLE{}, nil
	case "sig":
		return Sig{}, nil
	case "huff":
		return Huff{}, nil
	default:
		return nil, fmt.Errorf("compress: unknown encoder %q", name)
	}
}

// Zlib wraps the standard DEFLATE coder at BestSpeed. The deflater and
// inflater are built on first use and reset for every later call: a
// deflater carries some 700 KB of match tables, so building one per stream
// would dominate what a dump allocates.
type Zlib struct {
	zw   *zlib.Writer
	zr   io.ReadCloser
	src  bytes.Reader
	sink appendWriter
}

// appendWriter is an io.Writer that appends to the slice.
type appendWriter []byte

func (w *appendWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// Name implements Encoder.
func (*Zlib) Name() string { return "zlib" }

// Encode implements Encoder.
func (z *Zlib) Encode(dst, src []byte) ([]byte, error) {
	if z.zw == nil {
		z.zw, _ = zlib.NewWriterLevel(nil, zlib.BestSpeed) // a valid constant level cannot fail
	}
	z.sink = dst
	z.zw.Reset(&z.sink)
	_, err := z.zw.Write(src)
	if cerr := z.zw.Close(); err == nil {
		err = cerr
	}
	out := z.sink
	z.sink = nil
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Decode implements Encoder.
func (z *Zlib) Decode(dst, src []byte) ([]byte, error) {
	z.src.Reset(src)
	defer z.src.Reset(nil)
	var err error
	if z.zr == nil {
		z.zr, err = zlib.NewReader(&z.src)
	} else {
		err = z.zr.(zlib.Resetter).Reset(&z.src, nil)
	}
	if err != nil {
		return nil, err
	}
	out := bytes.NewBuffer(dst)
	if _, err := out.ReadFrom(z.zr); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// RLE is a byte-level zero-run-length coder: runs of zero bytes (dominant
// after decimation) are stored as a marker plus a varint length; literal
// stretches are stored verbatim with a varint length. It is much faster
// than zlib at lower compression rates — the trade-off space the paper's
// encoder choice discusses.
type RLE struct{}

// Name implements Encoder.
func (RLE) Name() string { return "rle" }

// Encode implements Encoder.
func (RLE) Encode(dst, src []byte) ([]byte, error) {
	var tmp [binary.MaxVarintLen64]byte
	i := 0
	for i < len(src) {
		if src[i] == 0 {
			j := i
			for j < len(src) && src[j] == 0 {
				j++
			}
			// Zero run: tag byte 0x00 + varint run length.
			dst = append(dst, 0)
			n := binary.PutUvarint(tmp[:], uint64(j-i))
			dst = append(dst, tmp[:n]...)
			i = j
			continue
		}
		j := i
		for j < len(src) && src[j] != 0 {
			j++
		}
		// Literal run: tag byte 0x01 + varint length + bytes.
		dst = append(dst, 1)
		n := binary.PutUvarint(tmp[:], uint64(j-i))
		dst = append(dst, tmp[:n]...)
		dst = append(dst, src[i:j]...)
		i = j
	}
	return dst, nil
}

// maxRLERun bounds a single decoded run. A corrupt varint could otherwise
// demand an arbitrarily large allocation (zero runs) or overflow the int
// conversion guarding the literal copy.
const maxRLERun = 1 << 30

// Decode implements Encoder.
func (RLE) Decode(dst, src []byte) ([]byte, error) {
	i := 0
	for i < len(src) {
		tag := src[i]
		i++
		runLen, n := binary.Uvarint(src[i:])
		if n <= 0 {
			return nil, fmt.Errorf("compress: corrupt RLE varint at %d", i)
		}
		if runLen > maxRLERun {
			return nil, fmt.Errorf("compress: RLE run length %d exceeds limit at %d", runLen, i)
		}
		i += n
		switch tag {
		case 0:
			dst = append(dst, make([]byte, runLen)...)
		case 1:
			if i+int(runLen) > len(src) {
				return nil, fmt.Errorf("compress: truncated RLE literal at %d", i)
			}
			dst = append(dst, src[i:i+int(runLen)]...)
			i += int(runLen)
		default:
			return nil, fmt.Errorf("compress: bad RLE tag %d at %d", tag, i-1)
		}
	}
	return dst, nil
}

// Sig is a significance-map coder specialized for decimated wavelet data
// on 4-byte word granularity: a bitmap marks nonzero words, followed by
// the packed nonzero words and the unaligned tail verbatim. It trades
// compression rate (no entropy coding of the survivors) for speed and
// total predictability — the same trade the paper discusses for zerotree
// and SPIHT alternatives to ZLIB.
type Sig struct{}

// Name implements Encoder.
func (Sig) Name() string { return "sig" }

// Encode implements Encoder.
func (Sig) Encode(dst, src []byte) ([]byte, error) {
	words := len(src) / 4
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(words))
	dst = append(dst, tmp[:n]...)
	bitmapStart := len(dst)
	dst = append(dst, make([]byte, (words+7)/8)...)
	for w := 0; w < words; w++ {
		word := src[4*w : 4*w+4]
		if word[0]|word[1]|word[2]|word[3] != 0 {
			dst[bitmapStart+w/8] |= 1 << uint(w%8)
			dst = append(dst, word...)
		}
	}
	// Unaligned tail bytes verbatim.
	dst = append(dst, src[4*words:]...)
	return dst, nil
}

// Decode implements Encoder.
func (Sig) Decode(dst, src []byte) ([]byte, error) {
	words64, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("compress: corrupt sig header")
	}
	src = src[n:]
	// A valid stream carries one bitmap bit per word, so the word count can
	// never exceed 8x the remaining bytes; this also keeps the int
	// conversion below from overflowing into a negative slice bound.
	if words64 > uint64(len(src))*8 {
		return nil, fmt.Errorf("compress: sig word count %d exceeds stream capacity", words64)
	}
	words := int(words64)
	bitmapLen := (words + 7) / 8
	if len(src) < bitmapLen {
		return nil, fmt.Errorf("compress: truncated sig bitmap")
	}
	bitmap := src[:bitmapLen]
	payload := src[bitmapLen:]
	for w := 0; w < words; w++ {
		if bitmap[w/8]&(1<<uint(w%8)) != 0 {
			if len(payload) < 4 {
				return nil, fmt.Errorf("compress: truncated sig payload")
			}
			dst = append(dst, payload[:4]...)
			payload = payload[4:]
		} else {
			dst = append(dst, 0, 0, 0, 0)
		}
	}
	return append(dst, payload...), nil
}
