// Package spans tracks every message's lifecycle through the delivery
// pipeline: injection into the mesh, arrival at the destination port,
// acceptance into the NI input queue, insertion into a software buffer
// (the second case), and exactly one terminal disposal — fast-path
// dispose, buffered drain, kernel consumption, or a stray drop.
//
// The Recorder is the causal complement of internal/metrics: metrics
// aggregate ("how many messages went buffered"), spans answer "what
// happened to message 17" and "which messages never terminated". It is
// pure simulator bookkeeping — recording charges no simulated cycles and
// consumes no engine randomness, so instrumented and uninstrumented runs
// are cycle-identical. All methods are nil-safe no-ops, following the
// instrument pattern of internal/metrics, so call sites record
// unconditionally.
package spans

import (
	"fmt"
	"sort"

	"fugu/internal/trace"
)

// Terminal classifies how a message left the system.
type Terminal uint8

// Terminal states. Every injected message must reach exactly one.
const (
	TermNone     Terminal = iota
	TermFast              // disposed directly from the NI (first case)
	TermBuffered          // drained from a software buffer (second case)
	TermKernel            // consumed by the kernel (kernel/OS-network message)
	TermStray             // dropped: no resident process owns the GID
)

func (t Terminal) String() string {
	switch t {
	case TermFast:
		return "fast"
	case TermBuffered:
		return "buffered"
	case TermKernel:
		return "kernel"
	case TermStray:
		return "stray"
	default:
		return "in-flight"
	}
}

// Stage is a message's current position in the pipeline.
type Stage uint8

// Pipeline stages, in causal order.
const (
	StageSent       Stage = iota // injected into the mesh
	StageNetBlocked              // held in the network by receiver backpressure
	StageQueued                  // resident in the destination input queue
	StageBuffered                // copied into the owner's software buffer
)

// NumStages is the number of pipeline stages a span can dwell in.
const NumStages = 4

func (s Stage) String() string {
	switch s {
	case StageSent:
		return "sent"
	case StageNetBlocked:
		return "net-blocked"
	case StageQueued:
		return "queued"
	case StageBuffered:
		return "buffered"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// StageEvent is one entry of a span's stage timeline: when the span
// entered a stage, and why.
type StageEvent struct {
	At    uint64
	Stage Stage
	Cause string
}

// maxTimeline bounds the per-span stage timeline. The pipeline visits each
// stage at most once (sent → [net-blocked] → queued → [buffered]), so four
// entries suffice; the slack absorbs an anomalous revisit without losing
// the head of the story.
const maxTimeline = 6

// Span is the recorded lifecycle of one message. Epoch distinguishes
// machines when one recorder observes several sequentially-built machines
// (a sweep point's sub-runs): packet IDs restart at zero per machine.
type Span struct {
	Epoch int
	ID    uint64
	Class string
	Src   int
	Dst   int
	Words int

	SentAt uint64
	LastAt uint64 // time of the most recent lifecycle event
	Stage  Stage
	Cause  string // why the span last changed stage ("gid-mismatch", "divert", ...)

	// Latency anatomy: when the current stage was entered, cycles dwelt
	// per stage so far, and the stage-transition timeline. For a terminal
	// span the dwells sum exactly to EndAt-SentAt (the conservation
	// invariant Check enforces).
	EnteredAt uint64
	Dwell     [NumStages]uint64
	EndAt     uint64
	Term      Terminal

	timeline [maxTimeline]StageEvent
	steps    int

	Handler     uint64 // handler word, once a dispatch observed it
	HandlerSeen bool
}

// History returns the span's stage-transition timeline in order: one entry
// per stage entered, starting with StageSent at SentAt.
func (s *Span) History() []StageEvent { return s.timeline[:s.steps] }

// Latency returns the span's end-to-end latency, 0 while in flight.
func (s *Span) Latency() uint64 {
	if s.Term == TermNone {
		return 0
	}
	return s.EndAt - s.SentAt
}

// advance closes the dwell of the current stage and enters the next one.
// The engine clock is monotone, so at < EnteredAt indicates recorder
// misuse; the caller records the violation, advance just clamps.
func (s *Span) advance(at uint64, stage Stage, cause string) {
	if at >= s.EnteredAt {
		s.Dwell[s.Stage] += at - s.EnteredAt
		s.EnteredAt = at
	}
	s.LastAt = at
	s.Stage = stage
	s.Cause = cause
	if s.steps < maxTimeline {
		s.timeline[s.steps] = StageEvent{At: at, Stage: stage, Cause: cause}
		s.steps++
	}
}

func (s Span) String() string {
	h := ""
	if s.HandlerSeen {
		h = fmt.Sprintf(" handler=%#x", s.Handler)
	}
	c := ""
	if s.Cause != "" {
		c = " (" + s.Cause + ")"
	}
	return fmt.Sprintf("msg e%d#%d %s %d->%d %dw sent=%d last=%d %s%s%s",
		s.Epoch, s.ID, s.Class, s.Src, s.Dst, s.Words, s.SentAt, s.LastAt, s.Stage, c, h)
}

// Counts are the recorder's terminal tallies. The reconciliation
// invariants against the metrics registry are:
//
//	Fast + FlipFast == glaze.deliver.fast      (fast disposes + mid-read flips)
//	Inserts  == glaze.deliver.buffered  (buffered deliveries count at insert)
//	Buffered == Inserts                 (every buffered message drained)
type Counts struct {
	Begun    uint64
	Inserts  uint64 // second-case buffer insertions
	Fast     uint64
	Buffered uint64
	Kernel   uint64
	Stray    uint64
	FlipFast uint64 // mid-read mode flips: read fast, drained from the store
}

// Ended returns how many spans reached a terminal state.
func (c Counts) Ended() uint64 { return c.Fast + c.Buffered + c.Kernel + c.Stray }

type key struct {
	epoch int
	id    uint64
}

// maxViolations bounds the recorded anomaly list; a systematically broken
// pipeline would otherwise grow it without limit.
const maxViolations = 64

// Recorder observes message lifecycles. Create with NewRecorder; the zero
// of *Recorder (nil) records nothing.
type Recorder struct {
	log      *trace.Log // optional mirror into the event ring (Span category)
	epoch    int
	inflight map[key]*Span
	counts   Counts

	anatomy anatomy // per-stage dwell aggregation over terminal spans

	violations        []string
	violationsDropped int

	report *Report
}

// NewRecorder returns a recorder, optionally mirroring events into log's
// Span category (pass nil for counting/invariants only).
func NewRecorder(log *trace.Log) *Recorder {
	return &Recorder{log: log, inflight: make(map[key]*Span)}
}

// AttachMachine starts a new epoch: the next machine's packet IDs restart
// at zero, so spans are keyed by (epoch, id). glaze.NewMachine calls this
// when a recorder is installed.
func (r *Recorder) AttachMachine() {
	if r == nil {
		return
	}
	r.epoch++
}

// Epoch returns the current machine epoch (0 before any AttachMachine).
func (r *Recorder) Epoch() int {
	if r == nil {
		return 0
	}
	return r.epoch
}

// SetPolicy records the delivery-policy name under which subsequent spans
// terminate, keying the per-policy dwell anatomy. glaze.NewMachine calls
// this with the machine's resolved policy when a recorder is installed.
func (r *Recorder) SetPolicy(name string) {
	if r == nil {
		return
	}
	r.anatomy.policy = name
}

func (r *Recorder) violate(format string, args ...any) {
	if len(r.violations) >= maxViolations {
		r.violationsDropped++
		return
	}
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// Begin records a message's injection into the mesh.
func (r *Recorder) Begin(at, id uint64, class string, src, dst, words int) {
	if r == nil {
		return
	}
	k := key{r.epoch, id}
	if _, dup := r.inflight[k]; dup {
		r.violate("duplicate begin for e%d#%d", r.epoch, id)
		return
	}
	r.counts.Begun++
	s := &Span{
		Epoch: r.epoch, ID: id, Class: class, Src: src, Dst: dst, Words: words,
		SentAt: at, LastAt: at, Stage: StageSent, EnteredAt: at,
	}
	s.timeline[0] = StageEvent{At: at, Stage: StageSent}
	s.steps = 1
	r.inflight[k] = s
	r.log.Add(at, src, trace.Span, "begin #%d %s ->%d %dw", id, class, dst, words)
}

func (r *Recorder) get(id uint64, event string) *Span {
	s := r.inflight[key{r.epoch, id}]
	if s == nil {
		r.violate("%s for unknown span e%d#%d", event, r.epoch, id)
	}
	return s
}

// Arrive records the packet reaching its destination port.
func (r *Recorder) Arrive(at, id uint64) {
	if r == nil {
		return
	}
	if s := r.get(id, "arrive"); s != nil {
		s.LastAt = at
		r.log.Add(at, s.Dst, trace.Span, "arrive #%d", id)
	}
}

// NetBlock records receiver backpressure: the network holds the packet
// because the destination refused it (or earlier packets are blocked).
func (r *Recorder) NetBlock(at, id uint64) {
	if r == nil {
		return
	}
	if s := r.get(id, "net-block"); s != nil {
		if at < s.EnteredAt {
			r.violate("net-block for e%d#%d at %d before stage entry %d", r.epoch, id, at, s.EnteredAt)
		}
		s.advance(at, StageNetBlocked, "backpressure")
		r.log.Add(at, s.Dst, trace.Span, "net-block #%d", id)
	}
}

// Queued records acceptance into a node's input queue (NI or OS endpoint).
// The cause distinguishes a first-offer acceptance ("accepted") from a
// packet the network had to hold under backpressure first ("drain").
func (r *Recorder) Queued(at, id uint64, node int) {
	if r == nil {
		return
	}
	if s := r.get(id, "queued"); s != nil {
		cause := "accepted"
		if s.Stage == StageNetBlocked {
			cause = "drain"
		}
		if at < s.EnteredAt {
			r.violate("queued for e%d#%d at %d before stage entry %d", r.epoch, id, at, s.EnteredAt)
		}
		s.advance(at, StageQueued, cause)
		r.log.Add(at, node, trace.Span, "queued #%d (%s)", id, cause)
	}
}

// Insert records a second-case buffer insertion with its cause
// ("gid-mismatch", "divert", ...).
func (r *Recorder) Insert(at, id uint64, node int, cause string) {
	if r == nil {
		return
	}
	if s := r.get(id, "insert"); s != nil {
		if s.Stage == StageBuffered {
			r.violate("double insert for e%d#%d", r.epoch, id)
			return
		}
		if at < s.EnteredAt {
			r.violate("insert for e%d#%d at %d before stage entry %d", r.epoch, id, at, s.EnteredAt)
		}
		s.advance(at, StageBuffered, cause)
		r.counts.Inserts++
		r.log.Add(at, node, trace.Span, "insert #%d (%s)", id, cause)
	}
}

// Dispatch annotates the span with the handler word an extract observed.
func (r *Recorder) Dispatch(at, id, handler uint64) {
	if r == nil {
		return
	}
	if s := r.inflight[key{r.epoch, id}]; s != nil {
		s.LastAt, s.Handler, s.HandlerSeen = at, handler, true
	}
}

// FlipFast records a mid-read mode flip: an extract began reading the NI
// head on the fast path, a context switch diverted the half-read message
// into the second-case store, and the dispose drained it from there. The
// cost model books such a message on both paths — the receive stub tallies
// it fast, the kernel insert tallies it buffered — and its span terminates
// TermBuffered, so Check credits flips to the fast side to reconcile. The
// span has already ended by the time the extract learns the dispose
// outcome, so this is a bare tally, not a span-state transition.
func (r *Recorder) FlipFast(at, id uint64, node int) {
	if r == nil {
		return
	}
	r.counts.FlipFast++
	r.log.Add(at, node, trace.Span, "flip-fast #%d", id)
}

// End records the span's terminal state and retires it. A span may end
// exactly once; a second end (or an end with no begin) is a violation.
func (r *Recorder) End(at, id uint64, node int, term Terminal) {
	if r == nil {
		return
	}
	k := key{r.epoch, id}
	s := r.inflight[k]
	if s == nil {
		r.violate("end(%s) for unknown or already-ended span e%d#%d", term, r.epoch, id)
		return
	}
	if term == TermBuffered && s.Stage != StageBuffered {
		r.violate("buffered end for e%d#%d never inserted", r.epoch, id)
	}
	delete(r.inflight, k)
	switch term {
	case TermFast:
		r.counts.Fast++
	case TermBuffered:
		r.counts.Buffered++
	case TermKernel:
		r.counts.Kernel++
	case TermStray:
		r.counts.Stray++
	default:
		r.violate("end with non-terminal state for e%d#%d", r.epoch, id)
		return
	}
	// Close the final stage's dwell and enforce the conservation invariant:
	// per-stage dwells sum exactly to the end-to-end latency. advance()
	// makes this true by construction, so a mismatch means a transition
	// bypassed the dwell bookkeeping (or the clock ran backwards).
	if at >= s.EnteredAt {
		s.Dwell[s.Stage] += at - s.EnteredAt
		s.EnteredAt = at
	} else {
		r.violate("end for e%d#%d at %d before stage entry %d", r.epoch, id, at, s.EnteredAt)
	}
	s.LastAt, s.EndAt, s.Term = at, at, term
	var dwellSum uint64
	for _, d := range s.Dwell {
		dwellSum += d
	}
	if dwellSum != at-s.SentAt {
		r.violate("dwell conservation broken for e%d#%d: stage dwells sum to %d, end-to-end latency is %d",
			r.epoch, id, dwellSum, at-s.SentAt)
	}
	r.anatomy.observe(s)
	r.log.Add(at, node, trace.Span, "end #%d %s", id, term)
}

// Counts returns the terminal tallies.
func (r *Recorder) Counts() Counts {
	if r == nil {
		return Counts{}
	}
	return r.counts
}

// InFlightCount reports how many spans are unterminated, without the
// allocation and sort of InFlight — cheap enough for periodic sampling.
func (r *Recorder) InFlightCount() int {
	if r == nil {
		return 0
	}
	return len(r.inflight)
}

// InFlight returns the unterminated spans, sorted by (epoch, id).
func (r *Recorder) InFlight() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, len(r.inflight))
	for _, s := range r.inflight {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Epoch != out[j].Epoch {
			return out[i].Epoch < out[j].Epoch
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Violations returns recording anomalies (double begin/end, end without
// begin, ...). A healthy pipeline records none.
func (r *Recorder) Violations() []string {
	if r == nil {
		return nil
	}
	out := append([]string(nil), r.violations...)
	if r.violationsDropped > 0 {
		out = append(out, fmt.Sprintf("(%d further violations dropped)", r.violationsDropped))
	}
	return out
}

// Check verifies the span invariants against the metrics delivery
// counters (glaze.deliver.fast / glaze.deliver.buffered) and returns the
// violated ones, empty when all hold.
func (r *Recorder) Check(metricFast, metricBuffered uint64) []string {
	if r == nil {
		return nil
	}
	var out []string
	if n := len(r.inflight); n > 0 {
		msg := fmt.Sprintf("%d message(s) never reached a terminal state:", n)
		for i, s := range r.InFlight() {
			if i == 8 {
				msg += " ..."
				break
			}
			msg += "\n    " + s.String()
		}
		out = append(out, msg)
	}
	if r.counts.Fast+r.counts.FlipFast != metricFast {
		out = append(out, fmt.Sprintf("fast spans (%d) + mid-read flips (%d) != glaze.deliver.fast (%d)",
			r.counts.Fast, r.counts.FlipFast, metricFast))
	}
	if r.counts.Inserts != metricBuffered {
		out = append(out, fmt.Sprintf("buffer inserts (%d) != glaze.deliver.buffered (%d)",
			r.counts.Inserts, metricBuffered))
	}
	if r.counts.Buffered != r.counts.Inserts {
		out = append(out, fmt.Sprintf("buffered drains (%d) != inserts (%d): messages stuck in a software buffer",
			r.counts.Buffered, r.counts.Inserts))
	}
	if d, l := r.anatomy.dwellTotal(), r.anatomy.latencySum; d != l {
		out = append(out, fmt.Sprintf("per-stage dwells over terminal spans sum to %d cycles, end-to-end latencies to %d: anatomy lost time",
			d, l))
	}
	out = append(out, r.Violations()...)
	return out
}

// Summary renders the terminal tallies on one line.
func (r *Recorder) Summary() string {
	c := r.Counts()
	inflight := 0
	if r != nil {
		inflight = len(r.inflight)
	}
	return fmt.Sprintf("spans: %d begun, %d ended (%d fast, %d buffered of %d inserted, %d kernel, %d stray), %d in flight",
		c.Begun, c.Ended(), c.Fast, c.Buffered, c.Inserts, c.Kernel, c.Stray, inflight)
}

// SetReport attaches a watchdog diagnostic report to the recorder, where
// the harness and `fugusim inspect` retrieve it after the run.
func (r *Recorder) SetReport(rep *Report) {
	if r == nil {
		return
	}
	r.report = rep
}

// Report returns the attached diagnostic report, nil if no watchdog fired.
func (r *Recorder) Report() *Report {
	if r == nil {
		return nil
	}
	return r.report
}
