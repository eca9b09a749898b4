// Package glaze is the operating-system half of two-case delivery: the
// kernel interrupt handlers, the mode transitions between direct and
// buffered delivery, the virtual buffering system with its overflow control,
// the gang scheduler with skewed local clocks, and the per-node process
// machinery. It corresponds to the paper's Glaze exokernel plus the
// scheduler server.
package glaze

// AtomicityImpl selects which of Table 4's three columns the machine
// models: unprotected kernel-mode messaging, the predicted hardware
// revocable-interrupt-disable ("hard atomicity"), or the measured
// software-emulated mechanism of the first-silicon CMMU ("soft atomicity").
type AtomicityImpl int

// Atomicity implementations (Table 4 columns).
const (
	KernelMode AtomicityImpl = iota
	HardAtomicity
	SoftAtomicity
)

func (a AtomicityImpl) String() string {
	switch a {
	case KernelMode:
		return "kernel-mode"
	case HardAtomicity:
		return "hard-atomicity"
	case SoftAtomicity:
		return "soft-atomicity"
	default:
		return "unknown"
	}
}

// CostModel carries every cycle constant the simulator charges. The
// message-path rows reproduce Tables 4 and 5 of the paper; the kernel rows
// (context switch, fault service, paging) are not published there and carry
// representative values documented in DESIGN.md.
type CostModel struct {
	Impl AtomicityImpl

	// --- Table 4: message send ---
	DescribeNull   uint64 // descriptor construction, null message (6)
	DescribePerArg uint64 // additional cycles per argument word (3)
	Launch         uint64 // launch instruction (1)

	// --- Table 4: message receive via interrupt ---
	InterruptOverhead uint64 // 6
	RegisterSave      uint64 // 16
	GIDCheck          uint64 // 0 / 10 / 10
	TimerSetup        uint64 // 0 / 1 / 13
	VirtBufOverhead   uint64 // 0 / 8 / 8
	Dispatch          uint64 // 10 / 13 / 13 (+upcall)
	NullHandler       uint64 // 5, includes dispose
	UpcallCleanup     uint64 // 0 / 10 / 10
	TimerCleanup      uint64 // 0 / 1 / 17
	RegisterRestore   uint64 // 17
	RecvPerArg        uint64 // 2 per argument word

	// --- Table 4: message receive via polling ---
	Poll            uint64 // 3
	PollDispatch    uint64 // 5
	PollNullHandler uint64 // 1, includes dispose

	// --- Table 5: buffered path ---
	BufferInsertMin      uint64 // minimum buffer-insert handler (180)
	BufferInsertVMAlloc  uint64 // maximum, with demand page allocation (3,162)
	BufferedNullHandler  uint64 // execute null handler from buffer (52)
	BufferedPerArgTimes2 uint64 // 9: the paper's ~4.5 cycles/word, doubled to stay integral

	// --- Kernel costs outside the paper's tables ---
	ContextSwitch   uint64 // gang-switch work per node
	RevokeCost      uint64 // atomicity-timeout service (mode flip)
	FaultService    uint64 // zero-fill page fault outside the buffer path
	PageOut         uint64 // evict one buffer page over the OS network
	PageIn          uint64 // fetch one buffer page back
	ExtraBufferCost uint64 // artificial addition to the insert handler (Figure 10 knob)

	// --- Rival delivery policies (delivery package; unused by two-case) ---
	RemapCost        uint64 // zero-copy page flip: map + TLB invalidate
	RemapReleaseCost uint64 // zero-copy consume: unmap + TLB shootdown
}

// Costs returns the cost model for one of Table 4's columns.
func Costs(impl AtomicityImpl) CostModel {
	cm := CostModel{
		Impl:           impl,
		DescribeNull:   6,
		DescribePerArg: 3,
		Launch:         1,

		InterruptOverhead: 6,
		RegisterSave:      16,
		Dispatch:          10,
		NullHandler:       5,
		RegisterRestore:   17,
		RecvPerArg:        2,

		Poll:            3,
		PollDispatch:    5,
		PollNullHandler: 1,

		BufferInsertMin:      180,
		BufferInsertVMAlloc:  3162,
		BufferedNullHandler:  52,
		BufferedPerArgTimes2: 9,

		ContextSwitch: 400,
		RevokeCost:    100,
		FaultService:  500,
		PageOut:       2000,
		PageIn:        2000,

		RemapCost:        300,
		RemapReleaseCost: 60,
	}
	switch impl {
	case KernelMode:
		// Unprotected: no GID check, no timer, no upcall, no virtual
		// buffering overheads.
	case HardAtomicity:
		cm.GIDCheck = 10
		cm.TimerSetup = 1
		cm.VirtBufOverhead = 8
		cm.Dispatch = 13
		cm.UpcallCleanup = 10
		cm.TimerCleanup = 1
	case SoftAtomicity:
		cm.GIDCheck = 10
		cm.TimerSetup = 13
		cm.VirtBufOverhead = 8
		cm.Dispatch = 13
		cm.UpcallCleanup = 10
		cm.TimerCleanup = 17
	}
	return cm
}

// SendCost returns the cycles to describe and launch a message with n
// argument words (Table 4: 7 cycles null, +3 per argument).
func (cm CostModel) SendCost(nargs int) uint64 {
	return cm.DescribeNull + cm.DescribePerArg*uint64(nargs) + cm.Launch
}

// RecvIntrPre returns the interrupt-receive overhead before the handler
// body runs (Table 4 "subtotal" row: 32 / 54 / 66).
func (cm CostModel) RecvIntrPre() uint64 {
	return cm.InterruptOverhead + cm.RegisterSave + cm.GIDCheck +
		cm.TimerSetup + cm.VirtBufOverhead + cm.Dispatch
}

// RecvIntrPost returns the overhead after the handler body (cleanup rows).
func (cm CostModel) RecvIntrPost() uint64 {
	return cm.UpcallCleanup + cm.TimerCleanup + cm.RegisterRestore
}

// RecvIntrTotal returns the full interrupt-receive cost of a null message
// (Table 4 "interrupt total": 54 / 87 / 115).
func (cm CostModel) RecvIntrTotal() uint64 {
	return cm.RecvIntrPre() + cm.NullHandler + cm.RecvIntrPost()
}

// RecvPollTotal returns the polling-receive cost of a null message
// (Table 4 "polling total": 9).
func (cm CostModel) RecvPollTotal() uint64 {
	return cm.Poll + cm.PollDispatch + cm.PollNullHandler
}
