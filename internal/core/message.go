// Package core implements the AVMON protocol: the joining
// sub-protocol (paper Figure 1), the coarse-view maintenance and
// monitor-discovery sub-protocol (Figure 2), the monitoring layer with
// the forgetful-pinging and PR2 optimizations (Sections 3.3 and 5.4),
// and verifiable monitor reporting ("l out of K", Section 3.3).
//
// A Node is transport- and clock-agnostic: it reacts to Handle,
// Tick, and MonitorTick calls and emits messages through a Transport.
// The same implementation runs in the discrete-event simulator and on
// a real UDP network.
package core

import (
	"avmon/internal/ids"
)

// MsgType enumerates AVMON wire messages.
type MsgType uint8

const (
	// MsgJoin carries a (re-)joining node's spanning-tree JOIN
	// (Figure 1): Subject is the joiner, Weight the remaining spread
	// budget.
	MsgJoin MsgType = iota + 1
	// MsgPing is the coarse-view liveness probe of Figure 2.
	MsgPing
	// MsgPong answers MsgPing (echoes Seq).
	MsgPong
	// MsgCVFetch asks a peer for its coarse view.
	MsgCVFetch
	// MsgCVResp returns the peer's coarse view in View.
	MsgCVResp
	// MsgNotify informs nodes U and V that the pair (U, V) satisfies
	// the consistency condition, i.e. U ∈ PS(V).
	MsgNotify
	// MsgMonPing is an availability monitoring ping (Section 3.3);
	// distinct from MsgPing.
	MsgMonPing
	// MsgMonAck answers MsgMonPing (echoes Seq).
	MsgMonAck
	// MsgPR2 is the indegree-repair message of the STAT-PR2 variant
	// (Section 5.4): the sender asks the receiver to (re-)add it to
	// the receiver's coarse view.
	MsgPR2
	// MsgReportReq asks a node to report Count of its own monitors.
	MsgReportReq
	// MsgReportResp carries the reported monitors in View.
	MsgReportResp
	// MsgAvailBatchReq asks a monitor for its availability estimates
	// of every node in View — one socket round-trip for any number of
	// subjects.
	MsgAvailBatchReq
	// MsgAvailBatchResp answers MsgAvailBatchReq: View echoes the
	// requested subjects, Avails and Knowns are aligned with it.
	MsgAvailBatchResp
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgJoin:
		return "JOIN"
	case MsgPing:
		return "PING"
	case MsgPong:
		return "PONG"
	case MsgCVFetch:
		return "CV-FETCH"
	case MsgCVResp:
		return "CV-RESP"
	case MsgNotify:
		return "NOTIFY"
	case MsgMonPing:
		return "MON-PING"
	case MsgMonAck:
		return "MON-ACK"
	case MsgPR2:
		return "PR2"
	case MsgReportReq:
		return "REPORT-REQ"
	case MsgReportResp:
		return "REPORT-RESP"
	case MsgAvailBatchReq:
		return "AVAIL-BATCH-REQ"
	case MsgAvailBatchResp:
		return "AVAIL-BATCH-RESP"
	default:
		return "UNKNOWN"
	}
}

// Message is the single wire envelope for all AVMON traffic. Fields
// are populated per type; unused fields are zero.
type Message struct {
	Type    MsgType
	From    ids.ID   // sender (set by the sending node)
	Subject ids.ID   // JOIN joiner
	Weight  int      // JOIN spread budget
	U, V    ids.ID   // NOTIFY pair: U ∈ PS(V)
	View    []ids.ID // CV-RESP, REPORT-RESP, and AVAIL-BATCH payloads
	Seq     uint64   // request/response matching
	Count   int      // REPORT-REQ: number of monitors requested

	// Nonce is the query-correlation nonce: REPORT-REQ and
	// AVAIL-BATCH-REQ carry a caller-chosen nonce that the responder
	// echoes verbatim, so a querier can reject stale or forged
	// responses that do not match an in-flight request. Protocol
	// (non-query) messages leave it zero.
	Nonce uint64

	// Avails and Knowns are the AVAIL-BATCH-RESP payload: per-subject
	// estimates and tracking flags, aligned with View. They must have
	// equal length (the codec enforces this).
	Avails []float64
	Knowns []bool
}

// Reset zeroes the message for reuse, retaining the payload slices'
// capacity. Pools recycling envelopes (see Config.AcquireMessage) must
// call it before handing a message back out.
func (m *Message) Reset() {
	view, avails, knowns := m.View[:0], m.Avails[:0], m.Knowns[:0]
	*m = Message{}
	m.View, m.Avails, m.Knowns = view, avails, knowns
}

// Byte-size model used for bandwidth accounting. The paper charges
// 8 bytes per coarse-view entry and per monitoring ping (Section 5.1).
const (
	headerBytes = 8 // type + seq + sender, the paper's per-message floor
	entryBytes  = 8 // per ids.ID carried in a payload
)

// WireSize returns the number of bytes this message occupies on the
// wire under the paper's accounting model.
func (m *Message) WireSize() int {
	switch m.Type {
	case MsgJoin:
		return headerBytes + entryBytes + 2 // subject + 2-byte weight
	case MsgNotify:
		return headerBytes + 2*entryBytes
	case MsgCVResp, MsgReportResp, MsgAvailBatchReq:
		return headerBytes + entryBytes*len(m.View)
	case MsgAvailBatchResp:
		// Subjects plus an 8-byte estimate (and flag) per entry.
		return headerBytes + (entryBytes+8)*len(m.View)
	default:
		// PING, PONG, CV-FETCH, MON-PING, MON-ACK, PR2, REPORT-REQ.
		return headerBytes
	}
}

// Transport delivers messages to peers. Implementations must not
// block; delivery is best-effort (the system model only guarantees
// delivery between currently-alive nodes).
type Transport interface {
	Send(to ids.ID, m *Message)
}

// SelectionScheme is the pluggable, consistent, verifiable monitor
// selection relation of Section 3.2. Related(y, x) reports y ∈ PS(x).
// K is the expected pinging-set size, used only for sizing decisions.
//
// AVMON's discovery protocol works with any implementation; the
// paper's hash-based scheme is hashing.Selector.
type SelectionScheme interface {
	Related(y, x ids.ID) bool
	K() int
}

// RowScheme is the optional batched form of a SelectionScheme, used by
// the discovery sweep: RelatedRow evaluates u against every vs[j] in
// both orders and appends one entry per match to hits, in ascending j
// with forward before reverse — 2j for Related(u, vs[j]), 2j+1 for
// Related(vs[j], u). Entries equal to u are never matches, and the
// reverse check of every j with skipRev[j] set is skipped (skipRev may
// be nil). A scheme without it is swept one Related call per pair.
type RowScheme interface {
	RelatedRow(u ids.ID, vs []ids.ID, skipRev []bool, hits []int32) []int32
}
