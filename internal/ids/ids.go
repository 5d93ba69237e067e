// Package ids defines the node identity used throughout AVMON.
//
// Following the paper (Section 3.1), a node is identified by an
// <IPaddress, portnumber> pair. The identity is the unit that the
// hash-based consistency condition is computed over, so its byte
// encoding must be stable: we use the 6-byte big-endian concatenation
// of the IPv4 address and the port.
package ids

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// WireLen is the length of the canonical byte encoding of an ID:
// 4 bytes of IPv4 address followed by 2 bytes of port, big-endian.
const WireLen = 6

// ID is a compact node identity: the IPv4 address in the upper 32 bits
// of the low 48 bits, and the port in the low 16 bits. The zero value
// is None, which is not a valid node identity.
type ID uint64

// None is the zero ID, used to mean "no node".
const None ID = 0

var (
	// ErrBadAddr reports an unparseable host:port string.
	ErrBadAddr = errors.New("ids: bad address")
	// ErrShortBuffer reports a decode buffer smaller than WireLen.
	ErrShortBuffer = errors.New("ids: short buffer")
)

// New builds an ID from the four IPv4 octets and a port.
func New(a, b, c, d byte, port uint16) ID {
	return ID(uint64(a)<<40 | uint64(b)<<32 | uint64(c)<<24 | uint64(d)<<16 | uint64(port))
}

// Parse converts a dotted-quad "a.b.c.d:port" string into an ID.
func Parse(addr string) (ID, error) {
	host, portStr, ok := strings.Cut(addr, ":")
	if !ok {
		return None, fmt.Errorf("%w: %q (missing port)", ErrBadAddr, addr)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return None, fmt.Errorf("%w: %q: %v", ErrBadAddr, addr, err)
	}
	parts := strings.Split(host, ".")
	if len(parts) != 4 {
		return None, fmt.Errorf("%w: %q (not IPv4)", ErrBadAddr, addr)
	}
	var oct [4]byte
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return None, fmt.Errorf("%w: %q: %v", ErrBadAddr, addr, err)
		}
		oct[i] = byte(v)
	}
	id := New(oct[0], oct[1], oct[2], oct[3], uint16(port))
	if id == None {
		return None, fmt.Errorf("%w: %q (all-zero identity)", ErrBadAddr, addr)
	}
	return id, nil
}

// MustParse is Parse that panics on error; intended for tests and
// compile-time-constant-like initialization.
func MustParse(addr string) ID {
	id, err := Parse(addr)
	if err != nil {
		panic(err)
	}
	return id
}

// Octets returns the four IPv4 octets of the ID.
func (id ID) Octets() (a, b, c, d byte) {
	return byte(id >> 40), byte(id >> 32), byte(id >> 24), byte(id >> 16)
}

// Port returns the port number of the ID.
func (id ID) Port() uint16 { return uint16(id) }

// IsNone reports whether the ID is the zero (invalid) identity.
func (id ID) IsNone() bool { return id == None }

// String renders the ID as "a.b.c.d:port".
func (id ID) String() string {
	a, b, c, d := id.Octets()
	var sb strings.Builder
	sb.Grow(21)
	sb.WriteString(strconv.Itoa(int(a)))
	sb.WriteByte('.')
	sb.WriteString(strconv.Itoa(int(b)))
	sb.WriteByte('.')
	sb.WriteString(strconv.Itoa(int(c)))
	sb.WriteByte('.')
	sb.WriteString(strconv.Itoa(int(d)))
	sb.WriteByte(':')
	sb.WriteString(strconv.Itoa(int(id.Port())))
	return sb.String()
}

// AppendWire appends the canonical 6-byte encoding of the ID to dst.
func (id ID) AppendWire(dst []byte) []byte {
	a, b, c, d := id.Octets()
	return append(dst, a, b, c, d, byte(id.Port()>>8), byte(id.Port()))
}

// Wire returns the canonical 6-byte encoding of the ID.
func (id ID) Wire() [WireLen]byte {
	a, b, c, d := id.Octets()
	return [WireLen]byte{a, b, c, d, byte(id.Port() >> 8), byte(id.Port())}
}

// FromWire decodes an ID from the first WireLen bytes of buf.
func FromWire(buf []byte) (ID, error) {
	if len(buf) < WireLen {
		return None, ErrShortBuffer
	}
	port := uint16(buf[4])<<8 | uint16(buf[5])
	return New(buf[0], buf[1], buf[2], buf[3], port), nil
}

// Sim returns a synthetic, unique ID for simulated node number i
// (i >= 0). Simulated nodes live in 10.0.0.0/8 with port 4000 so that
// up to 2^24 distinct nodes can be generated.
func Sim(i int) ID {
	return New(10, byte(i>>16), byte(i>>8), byte(i), 4000)
}

// SimIndex recovers the node number from an ID produced by Sim. It
// reports false for identities outside the simulated 10.0.0.0/8 range.
func SimIndex(id ID) (int, bool) {
	// First octet 10 and port 4000, in one compare: the pair memo does
	// this four times per consistency check.
	if id&(0xFF<<40|0xFFFF) != 10<<40|4000 {
		return 0, false
	}
	return int(id>>16) & 0xFFFFFF, true
}

// Sort orders a slice of IDs in ascending numeric order, in place.
func Sort(s []ID) {
	slices.Sort(s)
}
