package storm

// Fault tolerance for the runtime: panic isolation, the Storm-style
// ack/replay reliability machinery, and failure policies.
//
// Storm's production deployments lean on three mechanisms the paper takes
// for granted: supervised workers (a crashing bolt does not kill the
// topology), the acker (every spout tuple is tracked through the tuple tree
// and replayed on loss), and operator-visible failure accounting. This file
// supplies all three for the simulated runtime:
//
//   - Every user callback (Open/NextTuple/Close, Prepare/Execute/Cleanup)
//     runs behind a recover that converts a panic into a *PanicError
//     carrying the stack, counted under storm.<comp>.panics.
//   - Spouts may emit *anchored* tuples with a message id (EmitAnchored).
//     An ackTracker follows the tuple tree — every downstream delivery
//     increments an outstanding count, every completed Execute decrements
//     it — and acks the spout when the tree drains cleanly, or replays the
//     root tuple with exponential backoff when a hop fails, drops it, or
//     the tree times out. After MaxRetries the tuple expires: it is counted
//     as dropped and the spout's Fail callback fires.
//   - A FailurePolicy decides what a task error means: FailFast (default,
//     the runtime's historical behavior) records it as the run error;
//     Degrade counts it, and after QuarantineAfter consecutive errors the
//     task is quarantined — groupings route around it and its queued
//     envelopes are counted as dropped — so one poisoned task degrades the
//     component instead of failing the run.
//
// Delivery remains at-most-once for plain emissions; anchored emissions are
// at-least-once (a timeout replay can duplicate a tuple that was merely
// slow, exactly like Storm's acker).

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"
)

// FailurePolicy selects how the runtime treats task-level failures
// (errors and recovered panics in user callbacks).
type FailurePolicy int

const (
	// FailFast records the first task error as the run error (Run still
	// drains the topology). This is the historical behavior and the default.
	FailFast FailurePolicy = iota
	// Degrade counts task errors without failing the run; after
	// QuarantineAfter consecutive errors a task is quarantined: groupings
	// route around it, envelopes already queued to it are counted as
	// dropped, and the monitor reports it under storm.<comp>.quarantined.
	Degrade
)

func (p FailurePolicy) String() string {
	switch p {
	case FailFast:
		return "failfast"
	case Degrade:
		return "degrade"
	}
	return fmt.Sprintf("FailurePolicy(%d)", int(p))
}

// PanicError is a panic recovered from a component callback, converted into
// a per-task error so one bad tuple degrades a task instead of crashing the
// process.
type PanicError struct {
	Component string
	TaskID    int
	Op        string // the callback that panicked: Open, NextTuple, Execute, ...
	Value     any    // the recovered panic value
	Stack     []byte // debug.Stack() at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("storm: %s task %d: panic in %s: %v", e.Component, e.TaskID, e.Op, e.Value)
}

// AnchorCollector is implemented by the runtime's spout collectors. Spouts
// that want at-least-once delivery type-assert their Collector and emit
// anchored tuples; when ack tracking is disabled (no WithAckTimeout) or the
// collector belongs to a bolt, EmitAnchored behaves exactly like Emit.
type AnchorCollector interface {
	Collector
	// EmitAnchored emits values on the default stream anchored under msgID:
	// the runtime tracks the tuple tree and replays the tuple on failure.
	EmitAnchored(msgID string, values map[string]any)
	// Acking reports whether anchored emissions are actually tracked, so
	// spouts can skip building message ids when tracking is off.
	Acking() bool
}

// DirectAnchorCollector extends AnchorCollector with an anchored direct
// emit. Plain EmitDirect from a spout has no way to register the tuple with
// the ack tracker (EmitAnchored only serves non-direct subscriptions), so a
// spout feeding a direct-grouped bolt silently lost at-least-once delivery.
// EmitDirectAnchored closes that hole: on a tracking spout collector it
// begins a tracked tuple tree rooted at msgID and delivers to the chosen
// task of every direct-grouped subscription; on bolt collectors it behaves
// like EmitDirect, riding the input tuple's existing tree (msgID ignored).
type DirectAnchorCollector interface {
	AnchorCollector
	// EmitDirectAnchored emits values on stream to one specific task of
	// every direct-grouped subscription, anchored under msgID.
	EmitDirectAnchored(msgID, stream string, task int, values map[string]any)
}

// AckingSpout is optionally implemented by spouts emitting anchored tuples.
// Ack is invoked when a tuple's tree fully drains without failure; Fail when
// the tuple expired after MaxRetries replays (or the run was cancelled).
// Both may be called from runtime goroutines concurrently with NextTuple.
type AckingSpout interface {
	Spout
	Ack(msgID string)
	Fail(msgID string)
}

// FaultTotals sums the runtime's fault counters across all components.
type FaultTotals struct {
	Panics       uint64
	Replays      uint64
	Acked        uint64
	Dropped      uint64 // skipped envelopes + routing drops + expired anchors
	Quarantined  uint64
	MissingField uint64
}

// FaultTotals returns the whole-run fault counters. The same values are
// published per component into an attached telemetry registry as
// storm.<comp>.{panics,replays,acked,dropped,quarantined,missing_field}.
func (r *Runtime) FaultTotals() FaultTotals {
	var ft FaultTotals
	for _, rc := range r.comps {
		ft.Panics += rc.panics.Load()
		ft.Replays += rc.replays.Load()
		ft.Acked += rc.acked.Load()
		ft.Quarantined += rc.quarantinedN.Load()
		ft.MissingField += rc.missingField.Load()
		ft.Dropped += rc.dropped.Load() + rc.expired.Load()
		for _, ts := range rc.tasks {
			ft.Dropped += ts.dropped.Load()
		}
	}
	return ft
}

// quarantine marks a task as quarantined (idempotently) and publishes the
// fact on its component so grouping routes can skip it.
func (r *Runtime) quarantine(rc *runningComponent, ts *taskState) {
	if ts.quarantined.Swap(true) {
		return
	}
	rc.anyQuarantined.Store(true)
	rc.quarantinedN.Add(1)
}

// taskFailed applies the failure policy to one task error: FailFast records
// it as the run error; Degrade counts consecutive errors toward quarantine.
// It returns true when the task was quarantined by this failure.
func (r *Runtime) taskFailed(rc *runningComponent, ts *taskState, err error) bool {
	ts.errors.Add(1)
	if r.policy != Degrade {
		r.recordErr(err)
		return false
	}
	ts.consecErr++
	if ts.consecErr >= r.quarK && !ts.quarantined.Load() {
		r.quarantine(rc, ts)
		return true
	}
	return false
}

// --- panic-isolating callback wrappers ---
//
// Cold lifecycle calls (Open/Close/Prepare/Cleanup) each run behind their
// own recover. The hot per-tuple calls (NextTuple/Execute) are guarded at
// the executor-loop level in runtime.go instead, so the steady-state path
// pays no defer.

func (r *Runtime) panicErr(rc *runningComponent, ts *taskState, op string, v any) *PanicError {
	rc.panics.Add(1)
	return &PanicError{Component: rc.spec.id, TaskID: ts.ctx.TaskID, Op: op, Value: v, Stack: debug.Stack()}
}

func (r *Runtime) spoutOpen(rc *runningComponent, ts *taskState) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = r.panicErr(rc, ts, "Open", p)
		}
	}()
	return ts.spout.Open(ts.ctx)
}

func (r *Runtime) spoutClose(rc *runningComponent, ts *taskState) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = r.panicErr(rc, ts, "Close", p)
		}
	}()
	return ts.spout.Close()
}

func (r *Runtime) boltPrepare(rc *runningComponent, ts *taskState) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = r.panicErr(rc, ts, "Prepare", p)
		}
	}()
	return ts.bolt.Prepare(ts.ctx)
}

func (r *Runtime) boltCleanup(rc *runningComponent, ts *taskState) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = r.panicErr(rc, ts, "Cleanup", p)
		}
	}()
	return ts.bolt.Cleanup()
}

// --- ack tracker ---

// pendingTuple is one in-flight anchored root tuple and its tree state —
// or, when remotePeer >= 0, a *sub-anchor*: the local stand-in for a tree
// rooted on another worker. A sub-anchor owns no replay state (rc, ts,
// tuple are zero), is never swept, and resolving it reports one ackResult
// back to the owning worker instead of acking a spout.
type pendingTuple struct {
	id    uint64
	rc    *runningComponent // spout component that anchored the tuple
	ts    *taskState        // spout task (Ack/Fail callbacks, drain waits)
	msgID string
	tuple Tuple // root tuple with ack id stamped, cached for replay
	// directTask >= 0 marks a root emitted with EmitDirectAnchored: replays
	// go only to direct-grouped subscriptions, addressed to this task.
	directTask int

	// remotePeer/remoteID link a sub-anchor to its upstream: the worker the
	// anchored envelope arrived from and the ack id in *that* worker's
	// tracker. remotePeer is -1 for ordinary local roots.
	remotePeer int
	remoteID   uint64

	outstanding int  // live deliveries + emitter/replay holds
	failed      bool // some hop failed or dropped the tuple
	retries     int
	deadline    time.Time
}

// ackTracker follows anchored tuple trees: sends increment a per-root
// outstanding count, completed executions decrement it. A drained tree acks
// the spout; a failed or timed-out tree is replayed from the cached root
// tuple with exponential backoff until MaxRetries, then expires as dropped.
type ackTracker struct {
	r          *Runtime
	timeout    time.Duration
	maxRetries int

	mu      sync.Mutex
	cond    *sync.Cond
	pending map[uint64]*pendingTuple
	byTask  map[*taskState]int // pending roots per spout task, for drain waits
	nextID  uint64
	stopped bool

	// shuffle counters for replay deliveries; only the tracker loop
	// goroutine delivers replays, so these are never shared with task
	// collectors (whose counters live on the emitting taskState).
	shuffle map[*subscription]*uint64

	// onRemoteResolve reports a drained sub-anchor to the worker that owns
	// the real root (set by the TCP transport; nil in-process). Called
	// outside mu.
	onRemoteResolve func(peer int, remoteID uint64, failed bool)

	stopCh chan struct{}
	wg     sync.WaitGroup
}

func newAckTracker(r *Runtime, timeout time.Duration, maxRetries int) *ackTracker {
	a := &ackTracker{
		r:          r,
		timeout:    timeout,
		maxRetries: maxRetries,
		pending:    make(map[uint64]*pendingTuple),
		byTask:     make(map[*taskState]int),
		shuffle:    make(map[*subscription]*uint64),
		stopCh:     make(chan struct{}),
	}
	a.cond = sync.NewCond(&a.mu)
	return a
}

func (a *ackTracker) start(done <-chan struct{}) {
	a.wg.Add(1)
	go a.loop(done)
}

func (a *ackTracker) stop() {
	close(a.stopCh)
	a.wg.Wait()
}

func (a *ackTracker) loop(done <-chan struct{}) {
	defer a.wg.Done()
	t := time.NewTicker(sweepTick(a.timeout))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			a.sweep()
		case <-done:
			a.cancelAll()
			return
		case <-a.stopCh:
			return
		}
	}
}

// begin registers a new anchored root tuple, stamping its ack id, with one
// outstanding "emitter hold" so the tree cannot drain to zero before every
// initial delivery was issued. directTask is the EmitDirectAnchored target
// task (-1 for ordinary anchored emissions); replays reuse it so a
// direct-anchored root is redelivered to the same task instead of being
// dropped as an unaddressed direct emit. Returns 0 when the tracker is
// stopped (the emission proceeds unanchored).
func (a *ackTracker) begin(rc *runningComponent, ts *taskState, msgID string, t *Tuple, directTask int) uint64 {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return 0
	}
	a.nextID++
	id := a.nextID
	t.ack = id
	// The cached root gets its own payload map: the consuming bolt may
	// write into the delivered map (InputMutator) or recycle it, and the
	// transport batches that carried the original deliveries are
	// themselves pooled — the replay copy must not alias either.
	root := *t
	root.Values = copyValues(t.Values)
	a.pending[id] = &pendingTuple{
		id: id, rc: rc, ts: ts, msgID: msgID, tuple: root, directTask: directTask,
		remotePeer: -1, outstanding: 1, deadline: time.Now().Add(a.timeout),
	}
	a.byTask[ts]++
	a.mu.Unlock()
	return id
}

// beginRemote registers a sub-anchor for an anchored envelope received from
// a peer: the local tracker follows the subtree rooted at that delivery and,
// when it drains, reports the outcome upstream via onRemoteResolve — one
// result matching the single inc the sender took when it shipped the
// envelope. The initial hold is the delivery itself, released by the
// receiving executor's post-Execute finish. Returns 0 when the tracker is
// stopped (the transport then resolves the delivery immediately).
func (a *ackTracker) beginRemote(peer int, remoteID uint64) uint64 {
	a.mu.Lock()
	if a.stopped {
		a.mu.Unlock()
		return 0
	}
	a.nextID++
	id := a.nextID
	a.pending[id] = &pendingTuple{
		id: id, remotePeer: peer, remoteID: remoteID, outstanding: 1,
	}
	a.mu.Unlock()
	return id
}

// inc counts one delivery of an anchored tuple's tree.
func (a *ackTracker) inc(id uint64) {
	a.mu.Lock()
	if p, ok := a.pending[id]; ok {
		p.outstanding++
	}
	a.mu.Unlock()
}

// markFailed flags a tree as failed without touching the outstanding count
// (used for routing drops, which never issued a matching inc). A deliver is
// always nested inside an emitter/execute hold, so the entry cannot resolve
// concurrently.
func (a *ackTracker) markFailed(id uint64) {
	a.mu.Lock()
	if p, ok := a.pending[id]; ok {
		p.failed = true
	}
	a.mu.Unlock()
}

// finish ends one delivery (or releases a hold) of an anchored tuple's
// tree. When the tree drains it either acks the spout or — if any hop
// failed — schedules a backoff replay, expiring the tuple past maxRetries.
func (a *ackTracker) finish(id uint64, failed bool) {
	var ackSpout, failSpout AckingSpout
	var msgID string
	a.mu.Lock()
	p, ok := a.pending[id]
	if !ok {
		a.mu.Unlock()
		return
	}
	p.outstanding--
	if failed {
		p.failed = true
	}
	if p.outstanding > 0 {
		a.mu.Unlock()
		return
	}
	if p.remotePeer >= 0 {
		// Sub-anchor drained: no replay here (the root's owner decides),
		// just report the subtree's outcome upstream.
		a.removeLocked(p)
		resolve := a.onRemoteResolve
		a.mu.Unlock()
		if resolve != nil {
			resolve(p.remotePeer, p.remoteID, p.failed)
		}
		return
	}
	switch {
	case !p.failed:
		a.removeLocked(p)
		p.rc.acked.Add(1)
		if s, isAck := p.ts.spout.(AckingSpout); isAck {
			ackSpout, msgID = s, p.msgID
		}
	case p.retries >= a.maxRetries:
		a.removeLocked(p)
		p.rc.expired.Add(1)
		if s, isAck := p.ts.spout.(AckingSpout); isAck {
			failSpout, msgID = s, p.msgID
		}
	default:
		// Drained but failed: eligible for replay once the backoff passes.
		p.deadline = time.Now().Add(a.backoff(p.retries))
	}
	a.mu.Unlock()
	if ackSpout != nil {
		ackSpout.Ack(msgID)
	}
	if failSpout != nil {
		failSpout.Fail(msgID)
	}
}

// removeLocked drops a pending entry and wakes drain waiters. Callers hold mu.
func (a *ackTracker) removeLocked(p *pendingTuple) {
	delete(a.pending, p.id)
	if p.ts != nil {
		a.byTask[p.ts]--
	}
	a.cond.Broadcast()
}

func (a *ackTracker) backoff(retries int) time.Duration {
	return backoffFor(a.timeout, retries)
}

// backoffFor is the replay backoff schedule shared by both acking modes:
// timeout << retries, with the shift clamped and the product saturated.
// Without the saturation a large WithAckTimeout (or a caller-supplied huge
// retry count before the clamp) overflows int64 into a negative backoff,
// which produces already-expired deadlines that replay in a hot loop.
func backoffFor(timeout time.Duration, retries int) time.Duration {
	shift := uint(retries)
	if shift > 10 {
		shift = 10
	}
	// Saturate at MaxInt64>>1 so deadline arithmetic (now + backoff) still
	// has headroom.
	if timeout > math.MaxInt64>>(shift+1) {
		return math.MaxInt64 >> 1
	}
	return timeout << shift
}

// sweepTick is the deadline sweeper's interval for both acking modes:
// timeout/4, clamped to [1ms, 100ms]. The 1ms floor is the acking
// granularity documented on WithAckTimeout (config.fill rounds smaller
// timeouts up to it, so a deadline fires at most one timeout late); the
// 100ms ceiling bounds expiry latency under huge timeouts.
func sweepTick(timeout time.Duration) time.Duration {
	tick := timeout / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 100*time.Millisecond {
		tick = 100 * time.Millisecond
	}
	return tick
}

// sweep replays every pending tuple whose deadline passed — failed trees
// waiting out their backoff, and in-flight trees that timed out (those may
// duplicate a slow tuple: at-least-once). Tuples out of retries expire.
func (a *ackTracker) sweep() {
	now := time.Now()
	var replays, expired []*pendingTuple
	a.mu.Lock()
	for _, p := range a.pending {
		if p.remotePeer >= 0 {
			continue // sub-anchors have no deadline: the real root's owner sweeps
		}
		if now.Before(p.deadline) {
			continue
		}
		if p.retries >= a.maxRetries {
			a.removeLocked(p)
			p.rc.expired.Add(1)
			expired = append(expired, p)
			continue
		}
		p.retries++
		p.failed = false
		p.outstanding++ // replay hold, released after redelivery below
		p.deadline = now.Add(a.backoff(p.retries))
		p.rc.replays.Add(1)
		replays = append(replays, p)
	}
	a.mu.Unlock()
	for _, p := range expired {
		if s, ok := p.ts.spout.(AckingSpout); ok {
			s.Fail(p.msgID)
		}
	}
	for _, p := range replays {
		col := &taskCollector{r: a.r, rc: p.rc, ts: p.ts, shuffle: a.shuffle}
		// Each replay delivers a fresh clone of the cached root payload: the
		// consumer may release a pooled map after processing, and a further
		// replay of the same root must still see the original values.
		rt := p.tuple
		rt.Values = copyValues(p.tuple.Values)
		for _, sub := range p.rc.subs[rt.Stream] {
			if p.directTask >= 0 && sub.grouping.Type != DirectGrouping {
				continue
			}
			col.deliver(sub, &rt, p.directTask)
		}
		a.finish(p.id, false)
	}
}

// cancelAll expires every pending tuple (run cancellation): drain waiters
// wake, Fail callbacks fire, and later begin calls emit unanchored.
// Sub-anchors resolve as failed upstream, best-effort.
func (a *ackTracker) cancelAll() {
	var failed, remote []*pendingTuple
	a.mu.Lock()
	a.stopped = true
	resolve := a.onRemoteResolve
	for _, p := range a.pending {
		a.removeLocked(p)
		if p.remotePeer >= 0 {
			remote = append(remote, p)
			continue
		}
		p.rc.expired.Add(1)
		failed = append(failed, p)
	}
	a.mu.Unlock()
	for _, p := range failed {
		if s, ok := p.ts.spout.(AckingSpout); ok {
			s.Fail(p.msgID)
		}
	}
	if resolve != nil {
		for _, p := range remote {
			resolve(p.remotePeer, p.remoteID, true)
		}
	}
}

// copyValues clones a tuple payload map (nil stays nil).
func copyValues(m map[string]any) map[string]any {
	if m == nil {
		return nil
	}
	c := make(map[string]any, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// waitTask blocks until the task has no pending anchored tuples, keeping
// its spout executor — and therefore its downstream channels — alive while
// replays are still possible.
func (a *ackTracker) waitTask(ts *taskState) {
	a.mu.Lock()
	for a.byTask[ts] > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}
