package main

import (
	"fmt"
	"math"
	"sort"
)

// interval is a half-open [start, end) in tracer nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by ivs (sorted in place).
func unionLen(ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if iv.end <= iv.start {
			continue
		}
		if !open || iv.start > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv.start, iv.end, true
			continue
		}
		if iv.end > curE {
			curE = iv.end
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// opLedger splits one op's end-to-end time into the layers the tracer
// wraps. The layers are disjoint by construction of the program (a fence
// check never runs inside a journal append, node verbs never inside
// either), and check verifies that: the layers plus the residue no wrapped
// call covers must add up to the end-to-end time.
type opLedger struct {
	kind               uint8
	e2e                int64
	shard              int64 // router admission, queue wait, hand-off: op minus Execute
	exec               int64 // shard.Execute span
	fence, journal     int64
	nodeVerbs, haVerbs int64 // HA verbs outside fence/journal (takeover's own verbs)
	residue            int64
	nodeCount          [numVerbKinds]int
	nodeBusy           int64 // summed node verb durations
	nodeBytes          int64
	haCount            int
	haBusy             int64
	journalAppends     int
	journalBytes       int64
	fenceChecks        int
}

// ledgerSum is the sum the ledger check compares against e2e.
func (l *opLedger) ledgerSum() int64 {
	return l.shard + l.fence + l.journal + l.nodeVerbs + l.haVerbs + l.residue
}

// buildLedgers computes one ledger per complete op span in spans.
func buildLedgers(spans []span) ([]opLedger, error) {
	byTrace := map[uint32][]*span{}
	for i := range spans {
		s := &spans[i]
		byTrace[s.trace] = append(byTrace[s.trace], s)
	}
	kindOf := func(id uint32) uint8 { return spans[id-1].kind }
	var out []opLedger
	for _, group := range byTrace {
		var root *span
		for _, s := range group {
			if s.kind == kindOp {
				root = s
			}
		}
		if root == nil || root.end < 0 {
			continue
		}
		complete := true
		for _, s := range group {
			if s.end < 0 {
				complete = false
			}
		}
		if !complete {
			continue
		}
		l := opLedger{kind: root.verb, e2e: root.end - root.start}
		clip := func(s *span) interval {
			return interval{max(s.start, root.start), min(s.end, root.end)}
		}
		var execIv, fenceIv, journalIv, nodeIv, haIv []interval
		for _, s := range group {
			switch s.kind {
			case kindExecute:
				execIv = append(execIv, clip(s))
			case kindFence:
				fenceIv = append(fenceIv, clip(s))
				l.fenceChecks++
			case kindJournal:
				journalIv = append(journalIv, clip(s))
				l.journalAppends++
			case kindVerb:
				d := s.end - s.start
				if s.link == linkNode {
					nodeIv = append(nodeIv, clip(s))
					l.nodeCount[s.verb]++
					l.nodeBusy += d
					l.nodeBytes += int64(s.bytes)
					continue
				}
				l.haCount++
				l.haBusy += d
				pk := kindOf(s.parent)
				if pk == kindJournal && (s.verb == verbWrite || s.verb == verbBatch) {
					l.journalBytes += int64(s.bytes)
				}
				if pk != kindFence && pk != kindJournal {
					haIv = append(haIv, clip(s))
				}
			}
		}
		if len(execIv) > 0 {
			// The shard segment is the op span outside Execute.
			l.exec = unionLen(execIv)
			l.shard = l.e2e - l.exec
		}
		l.fence = unionLen(append([]interval(nil), fenceIv...))
		l.journal = unionLen(append([]interval(nil), journalIv...))
		l.nodeVerbs = unionLen(append([]interval(nil), nodeIv...))
		l.haVerbs = unionLen(append([]interval(nil), haIv...))
		covered := append(append(append(append([]interval(nil), fenceIv...), journalIv...), nodeIv...), haIv...)
		if len(execIv) > 0 {
			// Inside Execute, the residue is what no child covers; outside
			// it, everything is the shard segment.
			l.residue = l.exec - unionLen(covered)
		} else {
			l.residue = l.e2e - unionLen(covered)
		}
		if d := l.ledgerSum() - l.e2e; d > 1000 || d < -1000 {
			return nil, fmt.Errorf("ledger check: %s trace %d layers sum to %d ns, end-to-end %d ns (overlapping layers)",
				opNames[l.kind], root.trace, l.ledgerSum(), l.e2e)
		}
		out = append(out, l)
	}
	return out, nil
}

// ledgerTotals aggregates the ledgers of one op kind.
type ledgerTotals struct {
	n                                                             int
	e2e, shard, exec, fence, journal, nodeVerbs, haVerbs, residue int64
	nodeCount                                                     [numVerbKinds]int
	nodeBusy, nodeBytes, haBusy, journalBytes                     int64
	haCount, journalAppends, fenceChecks                          int
}

func sumLedgers(ls []opLedger, kind uint8) ledgerTotals {
	var t ledgerTotals
	for i := range ls {
		l := &ls[i]
		if l.kind != kind {
			continue
		}
		t.n++
		t.e2e += l.e2e
		t.shard += l.shard
		t.exec += l.exec
		t.fence += l.fence
		t.journal += l.journal
		t.nodeVerbs += l.nodeVerbs
		t.haVerbs += l.haVerbs
		t.residue += l.residue
		for k := range l.nodeCount {
			t.nodeCount[k] += l.nodeCount[k]
		}
		t.nodeBusy += l.nodeBusy
		t.nodeBytes += l.nodeBytes
		t.haBusy += l.haBusy
		t.journalBytes += l.journalBytes
		t.haCount += l.haCount
		t.journalAppends += l.journalAppends
		t.fenceChecks += l.fenceChecks
	}
	return t
}

// per divides a total by the op count (0 when there are no ops).
func (t ledgerTotals) per(v float64) float64 {
	if t.n == 0 {
		return 0
	}
	return v / float64(t.n)
}

func (t ledgerTotals) nodeVerbCount() int {
	n := 0
	for _, c := range t.nodeCount {
		n += c
	}
	return n
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
