package glaze

import (
	"fmt"
	"strings"

	"fugu/internal/cpu"
	"fugu/internal/mesh"
	"fugu/internal/sim"
	"fugu/internal/spans"
)

// siteWatchdog labels liveness-watchdog checks for the cost profiler.
var siteWatchdog = sim.NewSite("glaze.watchdog")

// WatchdogConfig parameterizes the machine's liveness watchdog. The
// watchdog samples a progress fingerprint — span begins/ends/inserts plus
// finished main threads — every Interval cycles; delivery progress resets
// the count, Grace consecutive stale samples fire it. Firing assembles a
// diagnostic report (Machine.Diagnose) and stops the engine, so a wedged
// run terminates with an explanation instead of hanging.
//
// The fingerprint deliberately ignores consumed CPU cycles and engine
// events: a task spinning for NI space burns both without making
// progress, and that livelock must trip the watchdog. The flip side is
// that a healthy message-free compute phase longer than Interval*Grace
// cycles fires it spuriously — size Interval for the workload.
type WatchdogConfig struct {
	Interval uint64 // cycles between progress checks; 0 disables the watchdog
	Grace    int    // consecutive stale checks before firing (min 1)
}

// Enabled reports whether the watchdog is configured to run.
func (wc WatchdogConfig) Enabled() bool { return wc.Interval > 0 }

// diagnoseIntervals is how many flight-recorder intervals Diagnose dumps —
// enough lead-up to see a mode flip or queue ramp without drowning the
// report.
const diagnoseIntervals = 8

// wdFingerprint summarizes observable delivery progress.
type wdFingerprint struct {
	begun, ended, inserts uint64
	mainsDone             int
}

type watchdog struct {
	m       *Machine
	cfg     WatchdogConfig
	last    wdFingerprint
	stale   int
	checkFn func() // w.check bound once so rescheduling never allocates
}

// startWatchdog schedules the watchdog's first check; each check schedules
// the next.
func startWatchdog(m *Machine, cfg WatchdogConfig) {
	if cfg.Grace < 1 {
		cfg.Grace = 1
	}
	w := &watchdog{m: m, cfg: cfg}
	w.checkFn = w.check
	m.Eng.ScheduleSite(siteWatchdog, cfg.Interval, w.checkFn)
}

func (w *watchdog) fingerprint() wdFingerprint {
	c := w.m.Spans.Counts()
	fp := wdFingerprint{begun: c.Begun, ended: c.Ended(), inserts: c.Inserts}
	for _, j := range w.m.jobs {
		fp.mainsDone += j.done
	}
	return fp
}

// check is the periodic watchdog event. It stops rescheduling itself once
// every job completes (so a finished machine's event queue can drain) or
// after firing.
func (w *watchdog) check() {
	allDone := true
	for _, j := range w.m.jobs {
		if !j.Done() {
			allDone = false
			break
		}
	}
	if allDone {
		return
	}
	fp := w.fingerprint()
	if fp != w.last {
		w.last = fp
		w.stale = 0
	} else {
		w.stale++
		if w.stale >= w.cfg.Grace {
			w.fire()
			return
		}
	}
	w.m.Eng.ScheduleSite(siteWatchdog, w.cfg.Interval, w.checkFn)
}

func (w *watchdog) fire() {
	w.m.Spans.SetReport(w.m.Diagnose(fmt.Sprintf(
		"no delivery progress for %d cycles (%d checks at interval %d) with unfinished jobs",
		uint64(w.stale)*w.cfg.Interval, w.stale, w.cfg.Interval)))
	w.m.Eng.Stop()
}

// Diagnose assembles a liveness report from the machine's current state:
// engine and per-node run-queue/NI state, per-process task and buffer
// state, in-flight spans, and the waits-for graph contributed by
// registered Diagnostic providers (with cycle detection). The watchdog
// calls it on firing; diagnostic rigs may call it directly on a machine
// that failed to complete.
func (m *Machine) Diagnose(reason string) *spans.Report {
	rep := &spans.Report{At: m.Eng.Now(), Reason: reason}

	var b strings.Builder
	fmt.Fprintf(&b, "t=%d pending-events=%d live-procs=%d\n",
		m.Eng.Now(), m.Eng.Pending(), m.Eng.LiveProcs())
	rep.Sections = append(rep.Sections, spans.Section{Title: "engine", Body: b.String()})

	for _, node := range m.Nodes {
		var b strings.Builder
		running := "idle"
		if t := node.CPU.Running(); t != nil {
			running = fmt.Sprintf("%s (%s)", t.Name(), t.StateName())
		}
		fmt.Fprintf(&b, "running=%s ready=%d divert=%v ni-queue=%d net-blocked=%d main/%d os os-queue=%d\n",
			running, node.CPU.ReadyCount(), node.NI.Divert(), node.NI.QueueLen(),
			m.Net.BlockedAt(node.Index, mesh.Main), m.Net.BlockedAt(node.Index, mesh.OS),
			len(node.Kernel.osQueue))
		if pkt := node.NI.HeadPacket(); pkt != nil {
			fmt.Fprintf(&b, "ni-head: #%d from node %d, %d words\n", pkt.ID, pkt.Src, len(pkt.Words))
		}
		rep.Sections = append(rep.Sections, spans.Section{
			Title: fmt.Sprintf("node %d", node.Index), Body: b.String()})
	}

	for _, j := range m.jobs {
		var b strings.Builder
		fmt.Fprintf(&b, "mains done=%d/%d overflowed=%v\n", j.done, j.mains, j.overflowed)
		for _, p := range j.procs {
			uac := p.uacShadow // the NI's UAC as the process left it
			if p.scheduled {
				uac = p.kern.ni.UAC()
			}
			fmt.Fprintf(&b, "node %d: buffered=%v atomicVirtual=%v throttled=%v scheduled=%v upcall-pending=%v uac=%#x buf-pending=%d",
				p.node, p.buffered, p.atomicVirtual, p.throttled, p.scheduled, p.upcallPending,
				uac, p.store.Pending())
			if ids := p.store.PendingIDs(); len(ids) > 0 {
				fmt.Fprintf(&b, " buf-msg-ids=%v", ids)
			}
			b.WriteByte('\n')
			p.eachTask(func(t *cpu.Task) {
				fmt.Fprintf(&b, "  task %-28s %s", t.Name(), t.StateName())
				if q := t.BlockedOn(); q != "" {
					fmt.Fprintf(&b, " on %s", q)
				}
				b.WriteByte('\n')
			})
		}
		rep.Sections = append(rep.Sections, spans.Section{Title: "job " + j.name, Body: b.String()})
	}

	if m.Spans != nil {
		var b strings.Builder
		b.WriteString(m.Spans.Summary() + "\n")
		for i, s := range m.Spans.InFlight() {
			if i == 32 {
				b.WriteString("...\n")
				break
			}
			b.WriteString(s.String() + "\n")
		}
		rep.Sections = append(rep.Sections, spans.Section{Title: "in-flight spans", Body: b.String()})
	}

	// The flight recorder's tail shows the lead-up to the stall: delivery
	// and overflow activity per interval, queue depths and per-node modes.
	if recent := m.telemetry.Recent(diagnoseIntervals); len(recent) > 0 {
		var b strings.Builder
		for _, iv := range recent {
			fmt.Fprintf(&b, "t=%-10d Δfast=%-6d Δbuf=%-6d Δins=%-5d Δovfl=%-3d Δnack=%-3d q=%d/%d inflight=%d modes=%s\n",
				iv.Cycle,
				iv.Counters["glaze.deliver.fast"], iv.Counters["glaze.deliver.buffered"],
				iv.Counters["glaze.buffer.inserts"], iv.Counters["glaze.overflow.trips"],
				iv.Counters["nic.nacked"],
				iv.QueueSum, iv.QueueMax, iv.SpansInFlight, iv.Modes)
		}
		rep.Sections = append(rep.Sections, spans.Section{
			Title: fmt.Sprintf("timeline (last %d intervals, every %d cycles)", len(recent), m.telemetry.Every()),
			Body:  b.String()})
	}

	for _, d := range m.diags {
		rep.Sections = append(rep.Sections, d.DiagSections(rep.At)...)
		rep.Edges = append(rep.Edges, d.WaitEdges()...)
	}
	rep.Cycle = spans.FindCycle(rep.Edges)
	return rep
}
