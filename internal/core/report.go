package core

import (
	"fmt"

	"avmon/internal/ids"
)

// ReportMonitors returns up to count of this node's monitors, for the
// "l out of K" reporting policy (Section 3.3): when another node asks
// x for its monitors, x must report at least l of its PS(x), and
// cannot lie because the requester verifies each one against the
// consistency condition (see VerifyReport).
//
// count ≤ 0 means "all known monitors". Selection among more than
// count monitors is random, spreading query load over PS(x).
func (n *Node) ReportMonitors(count int) []ids.ID {
	all := n.PS()
	if count <= 0 || count >= len(all) {
		return all
	}
	n.rand.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:count]
}

// ReportError explains why a reported monitor list failed
// verification.
type ReportError struct {
	// Subject is the node whose monitors were being verified.
	Subject ids.ID
	// Bogus lists reported monitors that fail the consistency
	// condition (fabricated, e.g. colluders), including duplicate
	// entries used to pad the report toward the l minimum.
	Bogus []ids.ID
	// Short is set when fewer than the required minimum verified.
	Short bool
	// Verified counts the reported monitors that passed.
	Verified int
	// Required is the minimum l demanded by the caller.
	Required int
}

// Error implements the error interface.
func (e *ReportError) Error() string {
	if len(e.Bogus) > 0 {
		return fmt.Sprintf("core: report for %v contains %d unverifiable monitor(s): %v",
			e.Subject, len(e.Bogus), e.Bogus)
	}
	return fmt.Sprintf("core: report for %v verified only %d of required %d monitors",
		e.Subject, e.Verified, e.Required)
}

// VerifyReport checks a monitor list reported by (or on behalf of)
// subject against the selection scheme. It returns the verified
// monitors, or a *ReportError if any reported monitor is bogus or
// fewer than minimum verify. This is the verifiability property in
// action: a selfish node cannot advertise colluders as its monitors
// because every third party can recompute the condition. A duplicated
// monitor is bogus too — repeating one real monitor must not count
// toward the l minimum.
func VerifyReport(scheme SelectionScheme, subject ids.ID, reported []ids.ID, minimum int) ([]ids.ID, error) {
	verified := make([]ids.ID, 0, len(reported))
	var bogus []ids.ID
	for i, m := range reported {
		dup := false
		for _, prev := range reported[:i] {
			if prev == m {
				dup = true
				break
			}
		}
		if dup || m == subject || m.IsNone() || !scheme.Related(m, subject) {
			bogus = append(bogus, m)
			continue
		}
		verified = append(verified, m)
	}
	if len(bogus) > 0 || len(verified) < minimum {
		return verified, &ReportError{
			Subject:  subject,
			Bogus:    bogus,
			Short:    len(verified) < minimum,
			Verified: len(verified),
			Required: minimum,
		}
	}
	return verified, nil
}

// QueryReport sends a REPORT-REQ for count monitors to the subject
// node, correlated by nonce (echoed in the REPORT-RESP). The response
// reaches the node's owner, which routes it to the asker before Handle;
// the caller then runs VerifyReport on it.
func (n *Node) QueryReport(subject ids.ID, count int, nonce uint64) uint64 {
	seq := n.nextSeq()
	n.send(subject, &Message{Type: MsgReportReq, Seq: seq, Nonce: nonce, Count: count})
	return seq
}

// QueryAvailabilityBatch asks a (verified) monitor for its estimates
// of every subject in subjects with a single AVAIL-BATCH-REQ,
// correlated by nonce. The AVAIL-BATCH-RESP reaches the node's owner
// the same way, with Avails/Knowns aligned to the echoed subject list.
func (n *Node) QueryAvailabilityBatch(monitor ids.ID, subjects []ids.ID, nonce uint64) uint64 {
	seq := n.nextSeq()
	n.send(monitor, &Message{
		Type: MsgAvailBatchReq, Seq: seq, Nonce: nonce,
		View: append([]ids.ID(nil), subjects...),
	})
	return seq
}
