package crypto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Semantic security hides everything about a plaintext except its length
// (§III-C). Values that must be indistinguishable therefore have to be
// padded to a common width before encryption. Pad/Unpad implement a simple
// length-prefixed scheme.

// ErrPadOverflow is returned when a value does not fit the target width.
var ErrPadOverflow = errors.New("crypto: value longer than pad width")

// ErrPadCorrupt is returned when an unpadded buffer is malformed.
var ErrPadCorrupt = errors.New("crypto: padded buffer corrupt")

// PadWidth returns the padded size for a payload capacity of n bytes.
func PadWidth(n int) int { return n + 4 }

// Pad encodes value into a buffer of exactly PadWidth(width) bytes:
// big-endian 4-byte length followed by the value and zero fill.
func Pad(value []byte, width int) ([]byte, error) {
	if len(value) > width {
		return nil, fmt.Errorf("%w: %d > %d", ErrPadOverflow, len(value), width)
	}
	out := make([]byte, PadWidth(width))
	binary.BigEndian.PutUint32(out[:4], uint32(len(value)))
	copy(out[4:], value)
	return out, nil
}

// Unpad reverses Pad.
func Unpad(buf []byte) ([]byte, error) {
	if len(buf) < 4 {
		return nil, ErrPadCorrupt
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if int(n) > len(buf)-4 {
		return nil, ErrPadCorrupt
	}
	return buf[4 : 4+n], nil
}
