package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rdx/internal/core"
	"rdx/internal/mem"
	"rdx/internal/native"
	"rdx/internal/rdma"
	"rdx/internal/shard"
	"rdx/internal/telemetry"
)

// Span kinds. An op span is the root of one trace: a publish, rollout or
// takeover as the client saw it. The others are the program seams the
// tracer wraps.
const (
	kindOp uint8 = iota
	kindExecute
	kindFence
	kindJournal
	kindVerb
)

var kindNames = [...]string{"op", "shard.execute", "controlha.fence_check", "controlha.journal_append", "verb"}

// Links a traced QP can sit on.
const (
	linkNode uint8 = iota
	linkHA
)

// Verb kinds, as counted per operation.
const (
	verbRead uint8 = iota
	verbWrite
	verbWriteImm
	verbBatch
	verbCAS
	verbFetchAdd
	verbChain
	verbRotate
	verbQuery
	numVerbKinds
)

var verbNames = [numVerbKinds]string{"read", "write", "write_imm", "write_batch", "cas", "fetch_add", "chain", "rotate_mr", "query_mrs"}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// id is the span's index in tracer.spans plus one, so 0 means "no span".
type span struct {
	trace, id, parent uint32
	kind, link, verb  uint8
	bytes             int32
	start, end        int64
}

// tracer records spans in memory around the seams the program exposes:
// rdma.Verbs issuers, the control plane's fence and journal hooks, and the
// shard executor. Calls that carry no context (the fence check, journal
// appends, verbs issued on a worker goroutine) are attributed to the span
// open on the calling goroutine; node verbs issued from pipeline fan-out
// goroutines are attributed to the op the node is bound to.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	limit int

	mu        sync.Mutex
	spans     []span
	dropped   int
	nextTrace uint32
	frames    map[int64][]uint32    // goroutine → open span stack
	byNode    map[string]uint32     // node name → open execute/op span
	jobs      map[*shard.Job]uint32 // job → op span
	unbound   int                   // verbs with no span to attach to
}

func newTracer(limit int) *tracer {
	return &tracer{
		epoch:  time.Now(),
		limit:  limit,
		frames: map[int64][]uint32{},
		byNode: map[string]uint32{},
		jobs:   map[*shard.Job]uint32{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// enabled reports whether spans are being recorded; a nil tracer never is.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// full reports whether the span budget is spent; the traced phase stops
// issuing new operations then, so every recorded op is complete.
func (t *tracer) full() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) >= t.limit
}

// openLocked appends a span with no end yet and returns its id.
func (t *tracer) openLocked(kind uint8, trace, parent uint32, start int64) uint32 {
	if len(t.spans) >= t.limit+t.limit/4 {
		t.dropped++
		return 0
	}
	id := uint32(len(t.spans) + 1)
	t.spans = append(t.spans, span{trace: trace, id: id, parent: parent, kind: kind, start: start, end: -1})
	return id
}

func (t *tracer) closeSpan(id uint32) {
	end := t.now()
	t.mu.Lock()
	if id != 0 {
		t.spans[id-1].end = end
	}
	t.mu.Unlock()
}

// Op kinds, stored in the verb field of an op span.
const (
	opPublish uint8 = iota
	opRollout
	opTakeover
	opProbe // a publish by a deposed leader, expected to be fenced
)

var opNames = [...]string{"publish", "rollout", "takeover", "fenced_probe"}

// beginOp opens the root span of a new trace and makes it the calling
// goroutine's current span. It returns 0 when tracing is off.
func (t *tracer) beginOp(kind uint8) uint32 {
	if !t.enabled() {
		return 0
	}
	g := goid()
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextTrace++
	id := t.openLocked(kindOp, t.nextTrace, 0, start)
	if id != 0 {
		t.spans[id-1].verb = kind
		t.frames[g] = append(t.frames[g], id)
	}
	return id
}

// endOp closes an op span opened by beginOp on this goroutine.
func (t *tracer) endOp(id uint32) {
	if id == 0 {
		return
	}
	g := goid()
	t.pop(g)
	t.closeSpan(id)
}

// bindJob remembers which op a router job belongs to, for the executor.
func (t *tracer) bindJob(j *shard.Job, op uint32) {
	if op == 0 {
		return
	}
	t.mu.Lock()
	t.jobs[j] = op
	t.mu.Unlock()
}

// bindNodes attributes verbs on the named nodes' QPs to span id (0 unbinds).
func (t *tracer) bindNodes(nodes []string, id uint32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, n := range nodes {
		if id == 0 {
			delete(t.byNode, n)
		} else {
			t.byNode[n] = id
		}
	}
	t.mu.Unlock()
}

func (t *tracer) pop(g int64) {
	t.mu.Lock()
	if st := t.frames[g]; len(st) > 1 {
		t.frames[g] = st[:len(st)-1]
	} else {
		delete(t.frames, g)
	}
	t.mu.Unlock()
}

// child opens a span of kind under parent and pushes it on goroutine g.
func (t *tracer) child(g int64, kind uint8, parent uint32) uint32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == 0 {
		return 0
	}
	id := t.openLocked(kind, t.spans[parent-1].trace, parent, start)
	if id != 0 {
		t.frames[g] = append(t.frames[g], id)
	}
	return id
}

// topLocked returns goroutine g's innermost open span, or 0.
func (t *tracer) topLocked(g int64) uint32 {
	if st := t.frames[g]; len(st) > 0 {
		return st[len(st)-1]
	}
	return 0
}

// around runs fn inside a span of kind nested under the calling
// goroutine's current span.
func (t *tracer) around(kind uint8, fn func() error) error {
	if !t.enabled() {
		return fn()
	}
	g := goid()
	t.mu.Lock()
	parent := t.topLocked(g)
	t.mu.Unlock()
	id := t.child(g, kind, parent)
	err := fn()
	if id != 0 {
		t.pop(g)
		t.closeSpan(id)
	}
	return err
}

// verb records one completed verb on a traced QP.
func (t *tracer) verb(q *tracedQP, kind uint8, bytes int, start int64) {
	end := t.now()
	var g int64
	if q.link == linkHA {
		g = goid()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent uint32
	if q.link == linkHA {
		parent = t.topLocked(g)
	} else {
		parent = t.byNode[q.node]
	}
	if parent == 0 {
		t.unbound++
		return
	}
	id := t.openLocked(kindVerb, t.spans[parent-1].trace, parent, start)
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.end, s.link, s.verb, s.bytes = end, q.link, kind, int32(bytes)
}

// execFunc wraps a shard executor so each job's Execute is a span under the
// op that submitted it, with the job's nodes bound to that span.
func (t *tracer) execFunc(inner shard.Executor) shard.Executor {
	return shard.ExecFunc(func(ctx context.Context, j *shard.Job) error {
		if !t.enabled() {
			return inner.Execute(ctx, j)
		}
		g := goid()
		t.mu.Lock()
		op := t.jobs[j]
		delete(t.jobs, j)
		t.mu.Unlock()
		id := t.child(g, kindExecute, op)
		if id == 0 {
			return inner.Execute(ctx, j)
		}
		t.bindNodes(j.Nodes, id)
		err := inner.Execute(ctx, j)
		t.bindNodes(j.Nodes, 0)
		t.pop(g)
		t.closeSpan(id)
		return err
	})
}

// fence wraps a control plane's fence check.
func (t *tracer) fence(check core.FenceCheck) core.FenceCheck {
	return func() error { return t.around(kindFence, check) }
}

// journalSink wraps a JournalSink so every append is a span.
type journalSink struct {
	t     *tracer
	inner core.JournalSink
}

func (s journalSink) do(fn func()) {
	_ = s.t.around(kindJournal, func() error { fn(); return nil }) // fn cannot fail
}

func (s journalSink) JournalValidate(d string) { s.do(func() { s.inner.JournalValidate(d) }) }
func (s journalSink) JournalCompile(d string, a native.Arch) {
	s.do(func() { s.inner.JournalCompile(d, a) })
}
func (s journalSink) JournalStage(node, hook, name, digest string, version, blob uint64) {
	s.do(func() { s.inner.JournalStage(node, hook, name, digest, version, blob) })
}
func (s journalSink) JournalPublish(node, hook string, d core.Deployed) {
	s.do(func() { s.inner.JournalPublish(node, hook, d) })
}
func (s journalSink) JournalRollback(node, hook string, to core.Deployed) {
	s.do(func() { s.inner.JournalRollback(node, hook, to) })
}
func (s journalSink) JournalClaim(node string, blob uint64) {
	s.do(func() { s.inner.JournalClaim(node, blob) })
}
func (s journalSink) JournalReclaim(node string, wrapEpoch uint64) {
	s.do(func() { s.inner.JournalReclaim(node, wrapEpoch) })
}
func (s journalSink) JournalHandoff(ringEpoch uint64) error {
	return s.t.around(kindJournal, func() error { return s.inner.JournalHandoff(ringEpoch) })
}

// tracedQP wraps an rdma.Verbs issuer, timing every verb while the tracer
// is on. It forwards the optional interfaces the program probes for, so the
// wrapped QP keeps its zero-copy reads and wire instruments.
type tracedQP struct {
	rdma.Verbs
	t    *tracer
	link uint8
	node string
}

// wrapQP returns qp itself when t is nil (untraced runs use the program's
// QPs unwrapped).
func (t *tracer) wrapQP(qp rdma.Verbs, link uint8, node string) rdma.Verbs {
	if t == nil {
		return qp
	}
	return &tracedQP{Verbs: qp, t: t, link: link, node: node}
}

func (q *tracedQP) ReadCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) ([]byte, error) {
	if !q.t.enabled() {
		return q.Verbs.ReadCtx(ctx, rkey, addr, n)
	}
	s := q.t.now()
	b, err := q.Verbs.ReadCtx(ctx, rkey, addr, n)
	q.t.verb(q, verbRead, 0, s)
	return b, err
}

// ReadFrameCtx keeps the zero-copy read path; every wrapped issuer is an
// *rdma.QP, which implements rdma.FrameReader.
func (q *tracedQP) ReadFrameCtx(ctx context.Context, rkey uint32, addr mem.Addr, n int) (rdma.FrameView, error) {
	fr := q.Verbs.(rdma.FrameReader)
	if !q.t.enabled() {
		return fr.ReadFrameCtx(ctx, rkey, addr, n)
	}
	s := q.t.now()
	v, err := fr.ReadFrameCtx(ctx, rkey, addr, n)
	q.t.verb(q, verbRead, 0, s)
	return v, err
}

func (q *tracedQP) WriteCtx(ctx context.Context, rkey uint32, addr mem.Addr, data []byte) error {
	if !q.t.enabled() {
		return q.Verbs.WriteCtx(ctx, rkey, addr, data)
	}
	s := q.t.now()
	err := q.Verbs.WriteCtx(ctx, rkey, addr, data)
	q.t.verb(q, verbWrite, len(data), s)
	return err
}

func (q *tracedQP) WriteImmCtx(ctx context.Context, rkey uint32, addr mem.Addr, imm uint32, data []byte) error {
	if !q.t.enabled() {
		return q.Verbs.WriteImmCtx(ctx, rkey, addr, imm, data)
	}
	s := q.t.now()
	err := q.Verbs.WriteImmCtx(ctx, rkey, addr, imm, data)
	q.t.verb(q, verbWriteImm, len(data), s)
	return err
}

func (q *tracedQP) WriteBatchCtx(ctx context.Context, ops []rdma.BatchOp) error {
	if !q.t.enabled() {
		return q.Verbs.WriteBatchCtx(ctx, ops)
	}
	n := 0
	for i := range ops {
		n += len(ops[i].Data)
	}
	s := q.t.now()
	err := q.Verbs.WriteBatchCtx(ctx, ops)
	q.t.verb(q, verbBatch, n, s)
	return err
}

func (q *tracedQP) CompareAndSwapCtx(ctx context.Context, rkey uint32, addr mem.Addr, old, new uint64) (uint64, error) {
	if !q.t.enabled() {
		return q.Verbs.CompareAndSwapCtx(ctx, rkey, addr, old, new)
	}
	s := q.t.now()
	prev, err := q.Verbs.CompareAndSwapCtx(ctx, rkey, addr, old, new)
	q.t.verb(q, verbCAS, 16, s)
	return prev, err
}

func (q *tracedQP) FetchAddCtx(ctx context.Context, rkey uint32, addr mem.Addr, delta uint64) (uint64, error) {
	if !q.t.enabled() {
		return q.Verbs.FetchAddCtx(ctx, rkey, addr, delta)
	}
	s := q.t.now()
	prev, err := q.Verbs.FetchAddCtx(ctx, rkey, addr, delta)
	q.t.verb(q, verbFetchAdd, 8, s)
	return prev, err
}

func (q *tracedQP) ChainTriggerCtx(ctx context.Context, rkey uint32, addr mem.Addr, arg uint64) (rdma.ChainResult, error) {
	if !q.t.enabled() {
		return q.Verbs.ChainTriggerCtx(ctx, rkey, addr, arg)
	}
	s := q.t.now()
	r, err := q.Verbs.ChainTriggerCtx(ctx, rkey, addr, arg)
	q.t.verb(q, verbChain, 8, s)
	return r, err
}

func (q *tracedQP) RotateMRCtx(ctx context.Context, name string) (uint32, error) {
	if !q.t.enabled() {
		return q.Verbs.RotateMRCtx(ctx, name)
	}
	s := q.t.now()
	k, err := q.Verbs.RotateMRCtx(ctx, name)
	q.t.verb(q, verbRotate, len(name), s)
	return k, err
}

func (q *tracedQP) QueryMRs() ([]rdma.MR, error) {
	if !q.t.enabled() {
		return q.Verbs.QueryMRs()
	}
	s := q.t.now()
	mrs, err := q.Verbs.QueryMRs()
	q.t.verb(q, verbQuery, 0, s)
	return mrs, err
}

// SetInstruments forwards the control plane's wire instruments to the
// wrapped issuer, as CreateCodeFlowQP would for an unwrapped one.
func (q *tracedQP) SetInstruments(m *rdma.WireMetrics, tr *telemetry.TraceRecorder, node string) {
	if ins, ok := q.Verbs.(interface {
		SetInstruments(*rdma.WireMetrics, *telemetry.TraceRecorder, string)
	}); ok {
		ins.SetInstruments(m, tr, node)
	}
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). Only traced runs call it.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	var id int64
	for _, c := range b[len("goroutine "):] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every recorded span as CSV to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace,span,parent,name,link,verb,bytes,start_ns,end_ns")
	for _, s := range t.snapshot() {
		name, link, verb := kindNames[s.kind], "", ""
		switch s.kind {
		case kindOp:
			name = opNames[s.verb]
		case kindVerb:
			link, verb = [...]string{"node", "ha"}[s.link], verbNames[s.verb]
		}
		fmt.Fprintf(w, "%d,%d,%d,%s,%s,%s,%d,%d,%d\n", s.trace, s.id, s.parent, name, link, verb, s.bytes, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
