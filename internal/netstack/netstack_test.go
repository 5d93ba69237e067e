package netstack

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"avmon/internal/core"
	"avmon/internal/ids"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		msg  core.Message
	}{
		{"join", core.Message{Type: core.MsgJoin, From: ids.Sim(1), Subject: ids.Sim(2), Weight: 17}},
		{"ping", core.Message{Type: core.MsgPing, From: ids.Sim(3), Seq: 42}},
		{"notify", core.Message{Type: core.MsgNotify, From: ids.Sim(4), U: ids.Sim(5), V: ids.Sim(6)}},
		{"cvresp", core.Message{
			Type: core.MsgCVResp, From: ids.Sim(7), Seq: 9,
			View: []ids.ID{ids.Sim(1), ids.Sim(2), ids.Sim(3)},
		}},
		{"negative weight", core.Message{Type: core.MsgJoin, From: ids.Sim(1), Weight: -3}},
		{"empty view resp", core.Message{Type: core.MsgCVResp, From: ids.Sim(1)}},
		{"nonced report req", core.Message{
			Type: core.MsgReportReq, From: ids.Sim(2), Seq: 12, Nonce: 0xABCDEF0123456789, Count: 4,
		}},
		{"batch req", core.Message{
			Type: core.MsgAvailBatchReq, From: ids.Sim(3), Seq: 13, Nonce: 99,
			View: []ids.ID{ids.Sim(4), ids.Sim(5), ids.Sim(6)},
		}},
		{"batch resp", core.Message{
			Type: core.MsgAvailBatchResp, From: ids.Sim(4), Seq: 13, Nonce: 99,
			View:   []ids.ID{ids.Sim(4), ids.Sim(5)},
			Avails: []float64{0.25, 0},
			Knowns: []bool{true, false},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buf, err := Encode(&tt.msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Type != tt.msg.Type || got.From != tt.msg.From ||
				got.Subject != tt.msg.Subject || got.U != tt.msg.U || got.V != tt.msg.V ||
				got.Weight != tt.msg.Weight || got.Seq != tt.msg.Seq || got.Nonce != tt.msg.Nonce ||
				got.Count != tt.msg.Count {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tt.msg)
			}
			if len(got.View) != len(tt.msg.View) {
				t.Fatalf("view length %d vs %d", len(got.View), len(tt.msg.View))
			}
			for i := range got.View {
				if got.View[i] != tt.msg.View[i] {
					t.Errorf("view[%d] = %v, want %v", i, got.View[i], tt.msg.View[i])
				}
			}
			if len(got.Avails) != len(tt.msg.Avails) || len(got.Knowns) != len(tt.msg.Knowns) {
				t.Fatalf("estimate payload %d/%d vs %d/%d",
					len(got.Avails), len(got.Knowns), len(tt.msg.Avails), len(tt.msg.Knowns))
			}
			for i := range got.Avails {
				if got.Avails[i] != tt.msg.Avails[i] || got.Knowns[i] != tt.msg.Knowns[i] {
					t.Errorf("est[%d] = (%v, %v), want (%v, %v)",
						i, got.Avails[i], got.Knowns[i], tt.msg.Avails[i], tt.msg.Knowns[i])
				}
			}
		})
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(typ uint8, fromIdx, subjIdx uint16, weight int32, seq, nonce uint64, avail float64, viewN, estN uint8) bool {
		m := &core.Message{
			// The codec is strict about types: draw from the defined
			// range (MsgJoin = 1 .. MsgAvailBatchResp).
			Type:    core.MsgType(typ%uint8(core.MsgAvailBatchResp) + 1),
			From:    ids.Sim(int(fromIdx)),
			Subject: ids.Sim(int(subjIdx)),
			Weight:  int(weight),
			Seq:     seq,
			Nonce:   nonce,
		}
		for i := 0; i < int(viewN%32); i++ {
			m.View = append(m.View, ids.Sim(i))
		}
		for i := 0; i < int(estN%8); i++ {
			m.Avails = append(m.Avails, avail*float64(i))
			m.Knowns = append(m.Knowns, i%2 == 0)
		}
		buf, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		if got.Weight != m.Weight || got.Seq != m.Seq || got.Nonce != m.Nonce ||
			len(got.View) != len(m.View) || len(got.Avails) != len(m.Avails) {
			return false
		}
		// NaN never compares equal; compare bit patterns via re-encode.
		buf2, err := Encode(got)
		if err != nil {
			return false
		}
		if len(buf) != len(buf2) {
			return false
		}
		for i := range buf {
			if buf[i] != buf2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"short", make([]byte, 10)},
		{"truncated view", func() []byte {
			m := &core.Message{Type: core.MsgCVResp, From: ids.Sim(1), View: []ids.ID{ids.Sim(2), ids.Sim(3)}}
			b, _ := Encode(m)
			return b[:len(b)-4]
		}()},
		{"oversized view count", func() []byte {
			m := &core.Message{Type: core.MsgCVResp, From: ids.Sim(1)}
			b, _ := Encode(m)
			b[fixedLen-4], b[fixedLen-3] = 0xFF, 0xFF
			return b
		}()},
		{"oversized est count", func() []byte {
			m := &core.Message{Type: core.MsgAvailBatchResp, From: ids.Sim(1)}
			b, _ := Encode(m)
			b[fixedLen-2], b[fixedLen-1] = 0xFF, 0xFF
			return b
		}()},
		{"truncated est payload", func() []byte {
			m := &core.Message{
				Type: core.MsgAvailBatchResp, From: ids.Sim(1),
				View:   []ids.ID{ids.Sim(2)},
				Avails: []float64{0.5}, Knowns: []bool{true},
			}
			b, _ := Encode(m)
			return b[:len(b)-3]
		}()},
		{"bad est known flag", func() []byte {
			m := &core.Message{
				Type: core.MsgAvailBatchResp, From: ids.Sim(1),
				Avails: []float64{0.5}, Knowns: []bool{true},
			}
			b, _ := Encode(m)
			b[len(b)-1] = 2
			return b
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.buf); !errors.Is(err, ErrCodec) {
				t.Errorf("Decode error = %v, want ErrCodec", err)
			}
		})
	}
}

func TestEncodeRejectsOversizedView(t *testing.T) {
	m := &core.Message{Type: core.MsgCVResp, View: make([]ids.ID, MaxViewEntries+1)}
	if _, err := Encode(m); !errors.Is(err, ErrCodec) {
		t.Errorf("Encode error = %v, want ErrCodec", err)
	}
}

func TestEncodeRejectsMisalignedEstimates(t *testing.T) {
	m := &core.Message{
		Type:   core.MsgAvailBatchResp,
		Avails: []float64{0.5, 0.25},
		Knowns: []bool{true},
	}
	if _, err := Encode(m); !errors.Is(err, ErrCodec) {
		t.Errorf("Encode error = %v, want ErrCodec for avails/knowns mismatch", err)
	}
	m = &core.Message{
		Type:   core.MsgAvailBatchResp,
		Avails: make([]float64, MaxViewEntries+1),
		Knowns: make([]bool, MaxViewEntries+1),
	}
	if _, err := Encode(m); !errors.Is(err, ErrCodec) {
		t.Errorf("Encode error = %v, want ErrCodec for oversized estimate payload", err)
	}
}

func pickPorts(t *testing.T, n int) []ids.ID {
	t.Helper()
	out := make([]ids.ID, 0, n)
	base := 20000 + rand.Intn(20000)
	for i := 0; i < n; i++ {
		out = append(out, ids.MustParse(
			"127.0.0.1:"+itoa(base+i)))
	}
	return out
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	pos := len(b)
	for i > 0 {
		pos--
		b[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(b[pos:])
}

func TestUDPDelivery(t *testing.T) {
	idsPair := pickPorts(t, 2)
	a, err := Listen(idsPair[0])
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(idsPair[1])
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var mu sync.Mutex
	var got []*core.Message
	done := make(chan struct{}, 1)
	go func() {
		_ = b.Serve(func(from ids.ID, m *core.Message) {
			mu.Lock()
			got = append(got, m)
			mu.Unlock()
			select {
			case done <- struct{}{}:
			default:
			}
		})
	}()

	a.Send(b.ID(), &core.Message{Type: core.MsgPing, From: a.ID(), Seq: 7})
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("datagram not delivered within 3s")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Type != core.MsgPing || got[0].Seq != 7 || got[0].From != a.ID() {
		t.Errorf("received %+v", got)
	}
}

func TestUDPCloseUnblocksServe(t *testing.T) {
	id := pickPorts(t, 1)[0]
	tr, err := Listen(id)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- tr.Serve(func(ids.ID, *core.Message) {}) }()
	time.Sleep(50 * time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v after Close, want nil", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	// Double Close is safe; Send after Close is a no-op.
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	tr.Send(id, &core.Message{Type: core.MsgPing})
}

func TestUDPMalformedDatagramIgnored(t *testing.T) {
	pair := pickPorts(t, 2)
	rx, err := Listen(pair[0])
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := Listen(pair[1])
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	var mu sync.Mutex
	var count int
	go func() {
		_ = rx.Serve(func(ids.ID, *core.Message) {
			mu.Lock()
			count++
			mu.Unlock()
		})
	}()
	// Raw garbage straight into the socket.
	tx.mu.Lock()
	_, _ = tx.conn.WriteToUDP([]byte{1, 2, 3}, addrOf(rx.ID()))
	tx.mu.Unlock()
	// Then a valid message; only it should arrive.
	tx.Send(rx.ID(), &core.Message{Type: core.MsgPong, From: tx.ID(), Seq: 1})
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Errorf("handled %d messages, want 1 (garbage dropped)", count)
	}
	// The drop is counted, per Serve's documented contract.
	if got := rx.DroppedDatagrams(); got != 1 {
		t.Errorf("DroppedDatagrams() = %d, want 1", got)
	}
	if got := tx.DroppedDatagrams(); got != 0 {
		t.Errorf("sender DroppedDatagrams() = %d, want 0", got)
	}
	// The valid send was accounted under the paper's wire model.
	want := (&core.Message{Type: core.MsgPong}).WireSize()
	if tx.DatagramsSent() != 1 || tx.WireBytesSent() != uint64(want) {
		t.Errorf("sender counters = (%d datagrams, %d wire bytes), want (1, %d)",
			tx.DatagramsSent(), tx.WireBytesSent(), want)
	}
}

func addrOf(id ids.ID) *net.UDPAddr {
	a, b, c, d := id.Octets()
	return &net.UDPAddr{IP: net.IPv4(a, b, c, d), Port: int(id.Port())}
}
