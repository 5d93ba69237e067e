package netstack

import (
	"bytes"
	"testing"

	"avmon/internal/core"
	"avmon/internal/ids"
)

// fuzzSeedMessages covers every wire message type with every field
// class populated, so the fuzzer starts from structurally valid
// datagrams of each shape.
func fuzzSeedMessages() []*core.Message {
	a := ids.MustParse("10.1.2.3:4000")
	b := ids.MustParse("192.168.0.9:65535")
	c := ids.MustParse("172.16.5.5:1")
	view := []ids.ID{a, b, c}
	return []*core.Message{
		{Type: core.MsgJoin, From: a, Subject: b, Weight: 7},
		{Type: core.MsgJoin, From: a, Subject: b, Weight: -3},
		{Type: core.MsgPing, From: a, Seq: 1},
		{Type: core.MsgPong, From: b, Seq: 1},
		{Type: core.MsgCVFetch, From: a, Seq: 42},
		{Type: core.MsgCVResp, From: b, Seq: 42, View: view},
		{Type: core.MsgCVResp, From: b, Seq: 43}, // empty view
		{Type: core.MsgNotify, From: c, U: a, V: b},
		{Type: core.MsgMonPing, From: a, Seq: 9},
		{Type: core.MsgMonAck, From: b, Seq: 9},
		{Type: core.MsgPR2, From: c},
		{Type: core.MsgReportReq, From: a, Seq: 5, Nonce: 0x1122334455667788, Count: 3},
		{Type: core.MsgReportResp, From: b, Seq: 5, Nonce: 0x1122334455667788, View: view[:2]},
		{Type: core.MsgAvailBatchReq, From: a, Seq: 6, Nonce: 9, View: view[2:]},
		{Type: core.MsgAvailBatchResp, From: b, Seq: 6, Nonce: 9, View: view[2:],
			Avails: []float64{0.875}, Knowns: []bool{true}},
		{Type: core.MsgAvailBatchResp, From: b, Seq: 7, View: view[2:],
			Avails: []float64{0}, Knowns: []bool{false}},
		{Type: core.MsgAvailBatchReq, From: a, Seq: 8, Nonce: 10, View: view},
		{Type: core.MsgAvailBatchResp, From: b, Seq: 8, Nonce: 10, View: view,
			Avails: []float64{1, 0.5, 0}, Knowns: []bool{true, true, false}},
		{Type: core.MsgAvailBatchResp, From: b, Seq: 9, Nonce: 11}, // empty batch
	}
}

// FuzzDecode hammers the wire decoder — the real deployment's attack
// surface: any host can address a datagram to an AVMON port. The
// decoder must never panic, never allocate proportionally to claimed
// (rather than actual) payload sizes, and must be the inverse of
// Encode on every datagram it accepts.
func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		buf, err := Encode(m)
		if err != nil {
			f.Fatalf("seed %v failed to encode: %v", m.Type, err)
		}
		f.Add(buf)
	}
	// Adversarial seeds: truncations, view- and estimate-length lies,
	// junk.
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0xAA}, fixedLen-1))
	lie := make([]byte, fixedLen)
	lie[fixedLen-4], lie[fixedLen-3] = 0xFF, 0xFF // claims 65535 view entries, carries none
	f.Add(lie)
	estLie := make([]byte, fixedLen)
	estLie[fixedLen-2], estLie[fixedLen-1] = 0xFF, 0xFF // claims 65535 estimates, carries none
	f.Add(estLie)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if m != nil {
				t.Fatal("Decode returned both a message and an error")
			}
			return
		}
		if len(m.View) > MaxViewEntries {
			t.Fatalf("accepted view of %d entries, cap is %d", len(m.View), MaxViewEntries)
		}
		// Round-trip: anything the decoder accepts must re-encode to
		// the identical datagram (the codec has no redundant forms).
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v (%+v)", err, m)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in: %x\nout: %x", data, re)
		}
	})
}
