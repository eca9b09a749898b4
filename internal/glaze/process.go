package glaze

import (
	"fmt"

	"fugu/internal/cpu"
	"fugu/internal/delivery"
	"fugu/internal/metrics"
	"fugu/internal/nic"
	"fugu/internal/vm"
)

// Process is the kernel's per-node state for one member of a gang-scheduled
// job: its tasks, its second-case message store, its address space, and the
// shadow copies of NI state swapped on context switches.
type Process struct {
	kern *Kernel
	job  *Job
	gid  nic.GID
	node int

	// Tasks. main runs the application; upcall is the message-handling
	// activity: the user-level interrupt in fast mode and the elevated
	// drain thread in buffered mode.
	main    *cpu.Task
	upcall  *cpu.Task
	upcallW *cpu.WaitQ
	extra   []*cpu.Task // threads spawned by the application

	// Activity is the body of the message-handling task, installed by the
	// user-level runtime (the udm package) before the process first runs.
	// The kernel signals the task whenever deliverable work may exist
	// (SignalUpcall); the activity takes the signal (TakeUpcall), delivers
	// what it may, and waits on UpcallQueue when no signal is left. It
	// never returns. A process with no runtime only takes its signals.
	Activity func(t *cpu.Task)

	// Mode state.
	upcallPending bool // a SignalUpcall has not yet been consumed
	buffered      bool // software-buffered delivery engaged
	atomicVirtual bool // revoked during a user atomic section: delivery
	// is deferred to the suspended thread until it ends its section.

	// NI state shadow (context switch).
	uacShadow  uint8
	descShadow []uint64

	scheduled bool // currently owns the node's NI (is the resident process)

	// Address space for ordinary data pages (handler page-fault modelling).
	Space *vm.Space

	// store is the delivery policy's second-case message store: the virtual
	// software buffer under two-case delivery, pinned flipped pages under
	// zero-copy remap, the descriptor ring under kernel bypass.
	store delivery.Store

	// Overflow control: while throttled, the process's sends stall.
	// overflowSeen is the highest suspend/resume sequence applied here;
	// older broadcasts still in flight are discarded as stale.
	throttled    bool
	overflowSeen uint64
	throttleW    *cpu.WaitQ

	// Statistics.
	Deliv           Delivery
	Revocations     uint64 // atomicity timeouts against this process
	FaultsInHandler uint64

	// Delivery instruments, bound to the node registry (shared across the
	// node's processes — the registry aggregates per node).
	mFast        *metrics.Counter
	mBuffered    *metrics.Counter
	mLatFast     *metrics.Histogram
	mLatBuffered *metrics.Histogram
	mBufPages    *metrics.Gauge
}

func newProcess(k *Kernel, job *Job, gid nic.GID) *Process {
	p := &Process{
		kern:      k,
		job:       job,
		gid:       gid,
		node:      k.node,
		upcallW:   cpu.NewWaitQ("upcall"),
		throttleW: cpu.NewWaitQ("throttle"),
		Space:     vm.NewSpace(k.frames),
		store: k.m.policy.NewStore(k.frames, delivery.Params{
			Costs: delivery.Costs{
				InsertMin:     k.cost.BufferInsertMin,
				InsertVMAlloc: k.cost.BufferInsertVMAlloc,
				ExtraInsert:   k.cost.ExtraBufferCost,
				PageOut:       k.cost.PageOut,
				PageIn:        k.cost.PageIn,
				Remap:         k.cost.RemapCost,
				RemapRelease:  k.cost.RemapReleaseCost,
			},
			NoReclaim: k.m.noReclaim,
		}),
	}
	p.mFast = k.reg.Counter("glaze.deliver.fast")
	p.mBuffered = k.reg.Counter("glaze.deliver.buffered")
	p.mLatFast = k.reg.Histogram("glaze.deliver.latency.fast")
	p.mLatBuffered = k.reg.Histogram("glaze.deliver.latency.buffered")
	p.mBufPages = k.reg.Gauge("glaze.buffer.pages")
	p.upcall = k.cpu.NewTask(
		fmt.Sprintf("%s.%d.upcall", job.name, k.node),
		cpu.PrioHandler, cpu.DomainUser,
		func(t *cpu.Task) {
			if p.Activity != nil {
				p.Activity(t)
			}
			for {
				p.TakeUpcall()
				p.upcallW.Wait(t)
			}
		})
	p.upcall.Suspend() // runs only while the process is scheduled
	if k.m.alwaysBuffered {
		p.buffered = true
	}
	return p
}

// Node returns the node this process runs on.
func (p *Process) Node() int { return p.node }

// Kernel returns the node kernel managing this process.
func (p *Process) Kernel() *Kernel { return p.kern }

// NI returns the node's network interface. User-level code accesses it
// directly in the fast case — that is the whole point of the paper.
func (p *Process) NI() *nic.NI { return p.kern.ni }

// Metrics returns the node's instrument registry, so higher layers (udm,
// crl) can bind their own named instruments next to the kernel's.
func (p *Process) Metrics() *metrics.Registry { return p.kern.reg }

// CountDelivery tallies one delivered message on the given path, updating
// both the legacy Deliv counters and the named node instruments
// ("glaze.deliver.fast" / "glaze.deliver.buffered").
func (p *Process) CountDelivery(fast bool) {
	if fast {
		p.Deliv.Fast++
		p.mFast.Inc()
	} else {
		p.Deliv.Buffered++
		p.mBuffered.Inc()
	}
}

// ObserveLatency records one message's injection-to-disposal latency into
// the per-path end-to-end histogram.
func (p *Process) ObserveLatency(fast bool, cycles uint64) {
	if fast {
		p.mLatFast.Observe(cycles)
	} else {
		p.mLatBuffered.Observe(cycles)
	}
}

// Head returns the packet ID and injection time of the message an extract
// would read — the NI's head packet in direct mode, the store's head in
// buffered mode. ok is false with no message pending.
func (p *Process) Head() (id, sentAt uint64, ok bool) {
	if p.buffered || p.kern.hwDemux {
		m, ok := p.store.Head()
		return m.ID, m.SentAt, ok
	}
	if pkt := p.kern.ni.HeadPacket(); pkt != nil {
		return pkt.ID, pkt.SentAt, true
	}
	return 0, 0, false
}

// Buffered reports whether the process is in software-buffered mode.
func (p *Process) Buffered() bool { return p.buffered }

// BufferPagesHighWater reports the most physical pages the process's
// second-case store ever consumed on this node.
func (p *Process) BufferPagesHighWater() int { return p.store.PagesHighWater() }

// BufferPending reports unconsumed messages in the second-case store.
func (p *Process) BufferPending() int { return p.store.Pending() }

// Store exposes the process's second-case message store (tests, harness).
func (p *Process) Store() delivery.Store { return p.store }

// UpcallConsumed reports total cycles spent by the message-handling
// activity (upcalls and buffered drains).
func (p *Process) UpcallConsumed() uint64 { return p.upcall.Consumed() }

// StartMain creates the application's main user thread. It begins suspended
// and runs only while the gang scheduler has the process resident.
func (p *Process) StartMain(fn func(t *cpu.Task)) {
	if p.main != nil {
		panic("glaze: StartMain called twice")
	}
	if p.job.mains == 0 {
		p.job.started = p.job.m.Eng.Now()
	}
	p.job.mains++
	p.main = p.kern.cpu.NewTask(
		fmt.Sprintf("%s.%d.main", p.job.name, p.node),
		cpu.PrioUser, cpu.DomainUser,
		func(t *cpu.Task) {
			fn(t)
			p.job.mainDone(p)
		})
	if !p.scheduled {
		p.main.Suspend()
	}
}

// SpawnThread creates an additional user thread for the process (message
// handlers may hand work off to threads in the UDM model).
func (p *Process) SpawnThread(name string, fn func(t *cpu.Task)) *cpu.Task {
	t := p.kern.cpu.NewTask(
		fmt.Sprintf("%s.%d.%s", p.job.name, p.node, name),
		cpu.PrioUser, cpu.DomainUser, fn)
	if !p.scheduled {
		t.Suspend()
	}
	p.extra = append(p.extra, t)
	return t
}

// SignalUpcall wakes the message-handling activity. The kernel calls it on
// message-available interrupts, buffer inserts and mode transitions; it is
// idempotent and level-triggered (a signal raised while the activity is
// busy is remembered).
func (p *Process) SignalUpcall() {
	p.upcallPending = true
	if p.upcallW.Len() > 0 {
		p.upcallW.WakeOne()
	}
}

// TakeUpcall consumes a pending signal, reporting whether there was one.
// The activity takes the signal before delivering and waits only once none
// remains, so a signal raised while it runs, or before it ever reached the
// wait queue, is never lost.
func (p *Process) TakeUpcall() bool {
	taken := p.upcallPending
	p.upcallPending = false
	return taken
}

// UpcallQueue is the queue the message-handling activity waits on for a
// signal.
func (p *Process) UpcallQueue() *cpu.WaitQ { return p.upcallW }

// UpcallResumes reports how many times the message-handling task's
// coroutine has been resumed (cpu.Task.Resumes).
func (p *Process) UpcallResumes() uint64 { return p.upcall.Resumes() }

// CanDeliverFast reports whether the message-handling activity may take a
// message on the direct path: resident, direct mode, matching head. Under a
// hardware-demultiplexing policy "direct" means the process's own ring has
// work — the NI already sorted it, and the kernel never touched it.
func (p *Process) CanDeliverFast() bool {
	if !p.scheduled || p.buffered {
		return false
	}
	if p.kern.hwDemux {
		return !p.store.Empty()
	}
	return p.kern.ni.MessageAvailable()
}

// CanDeliverBuffered reports whether the message-handling activity may
// deliver buffered messages: resident, buffered mode, work pending, and no
// open atomic section — neither a section suspended at revocation time
// (atomicVirtual) nor one the user currently holds through the UAC (a
// polling thread reads the buffer itself; delivering over its head would
// break atomicity).
func (p *Process) CanDeliverBuffered() bool {
	return p.scheduled && p.buffered && !p.atomicVirtual && !p.store.Empty() &&
		p.kern.ni.UAC()&nic.UACInterruptDisable == 0
}

// HaveMessage reports whether an extract by the *owning thread* would
// succeed — the user-visible message-available flag under transparent
// access: the NI flag in direct mode, buffer occupancy in buffered mode.
// Unlike CanDeliverBuffered this ignores virtual atomicity, because the
// thread that holds the suspended section is exactly the one polling.
func (p *Process) HaveMessage() bool {
	if !p.scheduled {
		return false
	}
	if p.buffered || p.kern.hwDemux {
		return !p.store.Empty()
	}
	return p.kern.ni.MessageAvailable()
}

// MsgLen returns the length in words of the current head message through
// the transparent-access indirection (NI window or store copy).
func (p *Process) MsgLen() int {
	if p.buffered || p.kern.hwDemux {
		return p.store.HeadLen()
	}
	return p.kern.ni.HeadLen()
}

// MsgWord reads word i of the current head message through the
// transparent-access indirection.
func (p *Process) MsgWord(i int) uint64 {
	if p.buffered || p.kern.hwDemux {
		return p.store.HeadWord(i)
	}
	return p.kern.ni.ReadWord(i)
}

// AtomicVirtual reports whether a revoked atomic section is still open.
func (p *Process) AtomicVirtual() bool { return p.atomicVirtual }

// Throttled reports whether overflow control has stalled this process's
// sends.
func (p *Process) Throttled() bool { return p.throttled }

// WaitThrottle blocks the calling task until overflow control releases the
// process.
func (p *Process) WaitThrottle(t *cpu.Task) {
	for p.throttled {
		p.throttleW.Wait(t)
	}
}

// eachTask calls f on each of the process's tasks in a fixed order: the
// main thread, the message-handling activity, then spawned threads.
func (p *Process) eachTask(f func(*cpu.Task)) {
	if p.main != nil {
		f(p.main)
	}
	f(p.upcall)
	for _, t := range p.extra {
		f(t)
	}
}

func (p *Process) suspendTasks() {
	p.eachTask(func(t *cpu.Task) {
		if !t.Done() {
			t.Suspend()
		}
	})
}

func (p *Process) resumeTasks() {
	p.eachTask(func(t *cpu.Task) {
		if !t.Done() {
			t.Resume()
		}
	})
}

// Job is a gang-scheduled parallel application: one process per node, all
// sharing a GID.
type Job struct {
	m       *Machine
	name    string
	gid     nic.GID
	procs   []*Process
	mains   int // processes whose main thread has been started
	done    int // main threads finished
	doneAt  uint64
	onDone  []func()
	started uint64 // time of first StartMain

	// Tag is free for higher layers (the application rig attaches itself
	// so the harness can reach per-endpoint statistics).
	Tag any

	// Overflow control state (global, mirrors the paper's scheduler
	// server view of the job). overflowSeq orders the suspend/resume
	// broadcasts: trips on different nodes race on the OS network, and a
	// stale suspend landing after the final resume would otherwise leave a
	// process throttled forever (see Kernel.osISR).
	overflowed  bool
	overflowSeq uint64
}

// Name returns the job's name.
func (j *Job) Name() string { return j.name }

// GID returns the job's group identifier.
func (j *Job) GID() nic.GID { return j.gid }

// Process returns the job's process on a node.
func (j *Job) Process(node int) *Process { return j.procs[node] }

// Procs returns all per-node processes.
func (j *Job) Procs() []*Process { return j.procs }

// Done reports whether every started main thread has finished.
func (j *Job) Done() bool { return j.mains > 0 && j.done == j.mains }

// DoneAt returns the completion time (valid once Done).
func (j *Job) DoneAt() uint64 { return j.doneAt }

// OnDone registers a completion callback.
func (j *Job) OnDone(fn func()) { j.onDone = append(j.onDone, fn) }

func (j *Job) mainDone(p *Process) {
	j.done++
	if j.Done() {
		j.doneAt = j.m.Eng.Now()
		for _, fn := range j.onDone {
			fn()
		}
	}
}

// Delivery tallies how messages reached an application: directly from the
// network interface (the fast case) or via the software buffer (the slow
// case). This is the quantity behind Figures 7, 9 and 10.
type Delivery struct {
	Fast     uint64 // upcall or poll straight from the NI
	Buffered uint64 // inserted into and handled from the virtual buffer
}

// Total returns all delivered messages.
func (d Delivery) Total() uint64 { return d.Fast + d.Buffered }

// BufferedPct returns the percentage of messages that took the buffered
// path, 0 if none were delivered.
func (d Delivery) BufferedPct() float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(d.Buffered) / float64(t)
}

// Add accumulates another tally.
func (d *Delivery) Add(o Delivery) {
	d.Fast += o.Fast
	d.Buffered += o.Buffered
}

func (d Delivery) String() string {
	return fmt.Sprintf("fast=%d buffered=%d (%.2f%%)", d.Fast, d.Buffered, d.BufferedPct())
}

// Delivery aggregates per-path delivery counts across the job's processes.
func (j *Job) Delivery() Delivery {
	var d Delivery
	for _, p := range j.procs {
		d.Add(p.Deliv)
	}
	return d
}

// MaxBufferPages returns the largest buffer-page high water across nodes —
// the "physical pages required" metric of Section 5.1.
func (j *Job) MaxBufferPages() int {
	max := 0
	for _, p := range j.procs {
		if hw := p.BufferPagesHighWater(); hw > max {
			max = hw
		}
	}
	return max
}
