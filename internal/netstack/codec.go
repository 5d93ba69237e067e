// Package netstack runs the AVMON protocol on a real network: a
// compact binary codec for core.Message and a UDP transport. A node's
// identity doubles as its UDP address, so no resolution layer is
// needed — exactly the <IP, port> identity the paper hashes.
package netstack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"avmon/internal/core"
	"avmon/internal/ids"
)

// ErrCodec reports a malformed wire message.
var ErrCodec = errors.New("netstack: bad message")

// MaxViewEntries bounds the coarse-view payload accepted on the wire,
// protecting against memory-exhaustion from forged datagrams.
const MaxViewEntries = 4096

// validWireType reports whether t is one of the defined message
// types. Encode and Decode both enforce it, so the codec stays
// symmetric when a new type is added.
func validWireType(t core.MsgType) bool {
	return t >= core.MsgJoin && t <= core.MsgAvailBatchResp
}

// fixed layout:
//
//	offset size field
//	0      1    type
//	1      6    from
//	7      6    subject
//	13     6    u
//	19     6    v
//	25     4    weight (int32, big-endian)
//	29     8    seq
//	37     8    nonce (query correlation)
//	45     4    count (int32)
//	49     2    len(view)
//	51     2    len(ests)
//	53     6×n  view entries
//	…      9×m  est entries (8-byte avail bits + 1-byte known)
const fixedLen = 53

// estWireLen is the per-entry size of the AVAIL-BATCH-RESP estimate
// payload: float64 bits plus a strict 0/1 known flag.
const estWireLen = 9

// Encode serializes m. Only the defined message types are encodable;
// the codec is strict in both directions so Encode∘Decode is the
// identity on every accepted datagram.
func Encode(m *core.Message) ([]byte, error) {
	if !validWireType(m.Type) {
		return nil, fmt.Errorf("%w: unknown message type %d", ErrCodec, m.Type)
	}
	if len(m.View) > MaxViewEntries {
		return nil, fmt.Errorf("%w: view too large (%d entries)", ErrCodec, len(m.View))
	}
	if len(m.Avails) != len(m.Knowns) {
		return nil, fmt.Errorf("%w: %d avails vs %d knowns", ErrCodec, len(m.Avails), len(m.Knowns))
	}
	if len(m.Avails) > MaxViewEntries {
		return nil, fmt.Errorf("%w: estimate payload too large (%d entries)", ErrCodec, len(m.Avails))
	}
	if m.Weight > math.MaxInt32 || m.Weight < math.MinInt32 ||
		m.Count > math.MaxInt32 || m.Count < math.MinInt32 {
		return nil, fmt.Errorf("%w: field overflow", ErrCodec)
	}
	buf := make([]byte, 0, fixedLen+ids.WireLen*len(m.View)+estWireLen*len(m.Avails))
	buf = append(buf, byte(m.Type))
	buf = m.From.AppendWire(buf)
	buf = m.Subject.AppendWire(buf)
	buf = m.U.AppendWire(buf)
	buf = m.V.AppendWire(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(m.Weight)))
	buf = binary.BigEndian.AppendUint64(buf, m.Seq)
	buf = binary.BigEndian.AppendUint64(buf, m.Nonce)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(m.Count)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.View)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Avails)))
	for _, id := range m.View {
		buf = id.AppendWire(buf)
	}
	for i, av := range m.Avails {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(av))
		k := byte(0)
		if m.Knowns[i] {
			k = 1
		}
		buf = append(buf, k)
	}
	return buf, nil
}

// Decode parses a datagram produced by Encode.
func Decode(buf []byte) (*core.Message, error) {
	if len(buf) < fixedLen {
		return nil, fmt.Errorf("%w: short datagram (%d bytes)", ErrCodec, len(buf))
	}
	m := &core.Message{Type: core.MsgType(buf[0])}
	if !validWireType(m.Type) {
		return nil, fmt.Errorf("%w: unknown message type %d", ErrCodec, buf[0])
	}
	var err error
	if m.From, err = ids.FromWire(buf[1:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	if m.Subject, err = ids.FromWire(buf[7:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	if m.U, err = ids.FromWire(buf[13:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	if m.V, err = ids.FromWire(buf[19:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	m.Weight = int(int32(binary.BigEndian.Uint32(buf[25:])))
	m.Seq = binary.BigEndian.Uint64(buf[29:])
	m.Nonce = binary.BigEndian.Uint64(buf[37:])
	m.Count = int(int32(binary.BigEndian.Uint32(buf[45:])))
	viewLen := int(binary.BigEndian.Uint16(buf[49:]))
	if viewLen > MaxViewEntries {
		return nil, fmt.Errorf("%w: view too large (%d entries)", ErrCodec, viewLen)
	}
	estLen := int(binary.BigEndian.Uint16(buf[51:]))
	if estLen > MaxViewEntries {
		return nil, fmt.Errorf("%w: estimate payload too large (%d entries)", ErrCodec, estLen)
	}
	if len(buf) != fixedLen+ids.WireLen*viewLen+estWireLen*estLen {
		return nil, fmt.Errorf("%w: length %d does not match view count %d + est count %d",
			ErrCodec, len(buf), viewLen, estLen)
	}
	if viewLen > 0 {
		m.View = make([]ids.ID, viewLen)
		for i := 0; i < viewLen; i++ {
			m.View[i], err = ids.FromWire(buf[fixedLen+i*ids.WireLen:])
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCodec, err)
			}
		}
	}
	if estLen > 0 {
		m.Avails = make([]float64, estLen)
		m.Knowns = make([]bool, estLen)
		base := fixedLen + ids.WireLen*viewLen
		for i := 0; i < estLen; i++ {
			off := base + i*estWireLen
			m.Avails[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
			switch buf[off+8] {
			case 0:
				m.Knowns[i] = false
			case 1:
				m.Knowns[i] = true
			default:
				// Strict parse: a forged flag byte must not silently
				// normalize (fuzz-found; Decode is the deployment's
				// attack surface and accepts only Encode's canonical
				// form).
				return nil, fmt.Errorf("%w: bad known flag %d in estimate %d", ErrCodec, buf[off+8], i)
			}
		}
	}
	return m, nil
}
