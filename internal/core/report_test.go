package core

import (
	"errors"
	"testing"

	"avmon/internal/ids"
)

func TestReportMonitors(t *testing.T) {
	fn := newFakeNet(t)
	a := fn.addNode(1, allRelated{}, nil)
	a.Join(fn.now, ids.None)
	for i := 0; i < 6; i++ {
		peer := ids.Sim(10 + i)
		a.Handle(peer, &Message{Type: MsgNotify, U: peer, V: a.ID()}, fn.now)
	}
	if got := a.ReportMonitors(0); len(got) != 6 {
		t.Errorf("ReportMonitors(0) returned %d, want all 6", len(got))
	}
	if got := a.ReportMonitors(100); len(got) != 6 {
		t.Errorf("ReportMonitors(100) returned %d, want 6", len(got))
	}
	got := a.ReportMonitors(3)
	if len(got) != 3 {
		t.Fatalf("ReportMonitors(3) returned %d", len(got))
	}
	ps := make(map[ids.ID]bool)
	for _, id := range a.PS() {
		ps[id] = true
	}
	for _, id := range got {
		if !ps[id] {
			t.Errorf("reported non-monitor %v", id)
		}
	}
}

func TestVerifyReportAcceptsHonest(t *testing.T) {
	scheme := testScheme(t, 50, 200)
	subject := ids.Sim(999)
	var honest []ids.ID
	for i := 0; i < 200 && len(honest) < 5; i++ {
		if scheme.Related(ids.Sim(i), subject) {
			honest = append(honest, ids.Sim(i))
		}
	}
	if len(honest) < 3 {
		t.Fatal("test setup: not enough related nodes")
	}
	verified, err := VerifyReport(scheme, subject, honest, len(honest))
	if err != nil {
		t.Fatalf("honest report rejected: %v", err)
	}
	if len(verified) != len(honest) {
		t.Errorf("verified %d of %d", len(verified), len(honest))
	}
}

func TestVerifyReportRejectsColluders(t *testing.T) {
	scheme := testScheme(t, 5, 500)
	subject := ids.Sim(999)
	// Find one honest monitor and one definite non-monitor (colluder).
	var honest, colluder ids.ID
	for i := 0; i < 500; i++ {
		if scheme.Related(ids.Sim(i), subject) {
			if honest.IsNone() {
				honest = ids.Sim(i)
			}
		} else if colluder.IsNone() {
			colluder = ids.Sim(i)
		}
	}
	if honest.IsNone() || colluder.IsNone() {
		t.Fatal("test setup failed")
	}
	verified, err := VerifyReport(scheme, subject, []ids.ID{honest, colluder}, 1)
	var re *ReportError
	if !errors.As(err, &re) {
		t.Fatalf("colluder-containing report accepted (err=%v)", err)
	}
	if len(re.Bogus) != 1 || re.Bogus[0] != colluder {
		t.Errorf("Bogus = %v, want [%v]", re.Bogus, colluder)
	}
	if len(verified) != 1 || verified[0] != honest {
		t.Errorf("verified = %v, want the honest monitor only", verified)
	}
	if re.Error() == "" {
		t.Error("empty error string")
	}
}

func TestVerifyReportRejectsSelfAndNone(t *testing.T) {
	subject := ids.Sim(1)
	_, err := VerifyReport(allRelated{}, subject, []ids.ID{subject}, 0)
	if err == nil {
		t.Error("self-report accepted")
	}
	_, err = VerifyReport(allRelated{}, subject, []ids.ID{ids.None}, 0)
	if err == nil {
		t.Error("None monitor accepted")
	}
}

// everyRelated is allRelated with Related(x, x) true as well: a scheme
// under which only VerifyReport's own check keeps a subject from
// vouching for itself.
type everyRelated struct{}

func (everyRelated) Related(y, x ids.ID) bool { return true }
func (everyRelated) K() int                   { return 1 << 20 }

// TestVerifyReportRejectsSubjectAsOwnMonitor: a subject reported as its
// own monitor is bogus whatever the scheme says of (x, x).
func TestVerifyReportRejectsSubjectAsOwnMonitor(t *testing.T) {
	subject := ids.Sim(1)
	for _, scheme := range []SelectionScheme{allRelated{}, everyRelated{}} {
		verified, err := VerifyReport(scheme, subject, []ids.ID{ids.Sim(2), subject}, 1)
		var re *ReportError
		if !errors.As(err, &re) || len(re.Bogus) != 1 || re.Bogus[0] != subject || len(verified) != 1 {
			t.Errorf("%T: verified %v, error %v; want the subject alone rejected", scheme, verified, err)
		}
	}
}

// TestVerifyReportMinimumIsExact: l verified monitors meet a minimum of
// l, and l − 1 fall Short of it.
func TestVerifyReportMinimumIsExact(t *testing.T) {
	subject, monitors := ids.Sim(1), []ids.ID{ids.Sim(2), ids.Sim(3), ids.Sim(4)}
	const l = 3
	if verified, err := VerifyReport(allRelated{}, subject, monitors, l); err != nil || len(verified) != l {
		t.Errorf("%d verified monitors against a minimum of %d: %v, %v", l, l, verified, err)
	}
	_, err := VerifyReport(allRelated{}, subject, monitors[:l-1], l)
	var re *ReportError
	if !errors.As(err, &re) || !re.Short || re.Verified != l-1 || re.Required != l || len(re.Bogus) != 0 {
		t.Errorf("%d verified monitors against a minimum of %d: %v, want Short", l-1, l, err)
	}
}

func TestVerifyReportShort(t *testing.T) {
	scheme := noneRelated{}
	_, err := VerifyReport(scheme, ids.Sim(1), nil, 2)
	var re *ReportError
	if !errors.As(err, &re) {
		t.Fatalf("short report accepted (err=%v)", err)
	}
	if !re.Short || re.Required != 2 || re.Verified != 0 {
		t.Errorf("ReportError = %+v", re)
	}
	if re.Error() == "" {
		t.Error("empty error string")
	}
}

func TestReportRequestRoundTrip(t *testing.T) {
	fn := newFakeNet(t)
	subject := fn.addNode(1, allRelated{}, nil)
	asker := fn.addNode(2, allRelated{}, nil)
	subject.Join(fn.now, ids.None)
	asker.Join(fn.now, ids.None)
	// Give the subject three monitors.
	for i := 0; i < 3; i++ {
		peer := ids.Sim(10 + i)
		subject.Handle(peer, &Message{Type: MsgNotify, U: peer, V: subject.ID()}, fn.now)
	}
	asker.QueryReport(subject.ID(), 2, 0xDEADBEEF)
	fn.flush()
	var gotReport []ids.ID
	var gotNonce uint64
	for _, r := range fn.responses {
		if r.to == asker.ID() && r.msg.Type == MsgReportResp && r.from == subject.ID() {
			gotReport, gotNonce = r.msg.View, r.msg.Nonce
		}
	}
	if len(gotReport) != 2 {
		t.Fatalf("received report of %d monitors, want 2", len(gotReport))
	}
	if gotNonce != 0xDEADBEEF {
		t.Errorf("REPORT-RESP nonce = %#x, want the request nonce echoed", gotNonce)
	}
	if _, err := VerifyReport(allRelated{}, subject.ID(), gotReport, 2); err != nil {
		t.Errorf("round-trip report failed verification: %v", err)
	}
}

func TestAvailabilityBatchQueryRoundTrip(t *testing.T) {
	fn := newFakeNet(t)
	mon := fn.addNode(1, allRelated{}, nil)
	tracked := fn.addNode(2, allRelated{}, nil)
	asker := fn.addNode(3, allRelated{}, nil)
	for _, n := range []*Node{mon, tracked, asker} {
		n.Join(fn.now, ids.None)
	}
	mon.Handle(tracked.ID(), &Message{Type: MsgNotify, U: mon.ID(), V: tracked.ID()}, fn.now)
	fn.advance(4, DefaultMonitorPeriod)
	subjects := []ids.ID{tracked.ID(), ids.Sim(77)}
	asker.QueryAvailabilityBatch(mon.ID(), subjects, 7)
	fn.flush()
	var resp *Message
	for _, r := range fn.responses {
		if r.to == asker.ID() && r.msg.Type == MsgAvailBatchResp {
			resp = r.msg
		}
	}
	if resp == nil {
		t.Fatal("no AVAIL-BATCH-RESP received")
	}
	if resp.Nonce != 7 {
		t.Errorf("batch resp nonce = %d, want 7", resp.Nonce)
	}
	if len(resp.View) != 2 || len(resp.Avails) != 2 || len(resp.Knowns) != 2 {
		t.Fatalf("batch resp shape = %d/%d/%d entries, want 2/2/2",
			len(resp.View), len(resp.Avails), len(resp.Knowns))
	}
	if resp.View[0] != tracked.ID() || !resp.Knowns[0] || resp.Avails[0] != 1 {
		t.Errorf("tracked entry = (%v, %v, %v), want known estimate 1.0",
			resp.View[0], resp.Avails[0], resp.Knowns[0])
	}
	if resp.Knowns[1] {
		t.Error("untracked subject reported as known")
	}
}

func TestVerifyReportRejectsDuplicates(t *testing.T) {
	subject := ids.Sim(1)
	honest := ids.Sim(2)
	// A selfish subject repeats one real monitor to fake l=3 coverage.
	verified, err := VerifyReport(allRelated{}, subject, []ids.ID{honest, honest, honest}, 3)
	var re *ReportError
	if !errors.As(err, &re) {
		t.Fatalf("duplicate-padded report accepted (err=%v)", err)
	}
	if len(verified) != 1 || verified[0] != honest {
		t.Errorf("verified = %v, want the single honest monitor", verified)
	}
	if len(re.Bogus) != 2 {
		t.Errorf("Bogus = %v, want the two duplicate entries", re.Bogus)
	}
}
