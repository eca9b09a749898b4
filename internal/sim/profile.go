package sim

import (
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// profEpoch anchors monotonic wall readings; time.Since on a time.Time
// carrying a monotonic clock is immune to wall-clock steps.
var profEpoch = time.Now()

func monotonicNs() int64 { return time.Since(profEpoch).Nanoseconds() }

// Site labels a schedule (or wake) call site for cost attribution: "which
// part of the simulator is generating events, and what do they cost?".
// Sites are process-global, registered once at package init by the code
// that schedules (mesh hop, NI drain, gang tick, ...), and stamped onto
// every Event so the Profiler can bucket dispatches without looking at the
// callback. Site zero is SiteMisc, the label of every event scheduled
// through a plain (unlabelled) Schedule call.
type Site int32

var siteReg = struct {
	sync.Mutex
	names []string
	ids   map[string]Site
}{ids: map[string]Site{}}

// NewSite registers (or finds) the site with the given name. Names are
// dotted paths ("mesh.deliver", "glaze.gang.tick"); the folded-stacks
// export splits on the dots. Safe for concurrent use, but intended for
// package-level var initialisation so registration is done before any
// engine runs.
func NewSite(name string) Site {
	siteReg.Lock()
	defer siteReg.Unlock()
	if id, ok := siteReg.ids[name]; ok {
		return id
	}
	id := Site(len(siteReg.names))
	siteReg.names = append(siteReg.names, name)
	siteReg.ids[name] = id
	return id
}

// SiteMisc is the default site: events scheduled without a label.
var SiteMisc = NewSite("sim.misc")

func (s Site) String() string {
	siteReg.Lock()
	defer siteReg.Unlock()
	if int(s) >= 0 && int(s) < len(siteReg.names) {
		return siteReg.names[s]
	}
	return fmt.Sprintf("site(%d)", int(s))
}

func siteCount() int {
	siteReg.Lock()
	defer siteReg.Unlock()
	return len(siteReg.names)
}

// ProfilerConfig selects what a Profiler measures beyond event counts and
// simulated cycles (which are always collected and always deterministic).
type ProfilerConfig struct {
	// Wall attributes host wall-clock nanoseconds per site (one
	// monotonic-clock read per dispatched event).
	Wall bool
	// Allocs attributes heap allocations per site (one runtime/metrics
	// read per dispatched event; noticeably slower, so opt-in).
	Allocs bool
}

// Profiler attributes engine work to schedule sites. Attach one to an
// engine with Engine.UseProfiler; a nil profiler costs one pointer
// comparison per event and nothing else, the same discipline as
// faultinject and telemetry — simulated results are identical either way,
// because the profiler only observes.
//
// Two attribution rules, both conservation-exact:
//
//   - simulated cycles: the time advance ending at an event is charged to
//     that event's site ("which events does the clock wait on"); the
//     per-site cycles sum to exactly the simulated time the engine
//     traversed while the profiler was attached.
//   - wall-ns / allocs: the host cost between two consecutive dispatches
//     is charged to the *earlier* event's site (that callback, plus the
//     engine work to reach the next event, was what the host was doing);
//     per-site values sum to the wall time / allocations of the whole run.
//
// A Profiler is bound to one engine at a time but survives re-attachment,
// so a sweep point that builds several machines accumulates one combined
// profile. It is not safe for concurrent use from parallel sweep workers;
// pair it with Parallelism(1), like Trace and Spans recorders.
type Profiler struct {
	wall   bool
	allocs bool

	lastNow    uint64
	prevSite   Site
	lastWallNs int64
	lastAllocs uint64
	sample     []rtmetrics.Sample

	sites []siteCell
}

type siteCell struct {
	events uint64
	cycles uint64
	wallNs int64
	allocs uint64
}

// NewProfiler returns a profiler sized to the current site registry.
func NewProfiler(cfg ProfilerConfig) *Profiler {
	p := &Profiler{wall: cfg.Wall, allocs: cfg.Allocs}
	if cfg.Allocs {
		p.sample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	}
	p.growTo(siteCount())
	return p
}

// UseProfiler attaches (or, with nil, detaches) a profiler. Attachment
// re-baselines the cycle/wall/alloc cursors at the engine's current time,
// so a profiler reused across machines charges each engine only for its
// own run.
func (e *Engine) UseProfiler(p *Profiler) {
	e.prof = p
	if p != nil {
		p.attachAt(e.now)
	}
}

func (p *Profiler) attachAt(now uint64) {
	p.growTo(siteCount())
	p.lastNow = now
	p.prevSite = SiteMisc
	if p.wall {
		p.lastWallNs = monotonicNs()
	}
	if p.allocs {
		p.lastAllocs = p.readAllocs()
	}
}

func (p *Profiler) growTo(n int) {
	if len(p.sites) < n {
		p.sites = append(p.sites, make([]siteCell, n-len(p.sites))...)
	}
}

func (p *Profiler) readAllocs() uint64 {
	rtmetrics.Read(p.sample)
	return p.sample[0].Value.Uint64()
}

// tick is the per-event hook, called by the dispatch loops (Engine.Run and
// the inline loop in Proc.park) after the clock advanced to ev.at.
func (p *Profiler) tick(site Site, now uint64) {
	if int(site) >= len(p.sites) {
		p.growTo(siteCount())
		if int(site) >= len(p.sites) { // unregistered id: guard, don't crash
			site = SiteMisc
		}
	}
	c := &p.sites[site]
	c.events++
	c.cycles += now - p.lastNow
	p.lastNow = now
	if p.wall {
		w := monotonicNs()
		p.sites[p.prevSite].wallNs += w - p.lastWallNs
		p.lastWallNs = w
	}
	if p.allocs {
		a := p.readAllocs()
		p.sites[p.prevSite].allocs += a - p.lastAllocs
		p.lastAllocs = a
	}
	p.prevSite = site
}

// SiteProfile is one row of a profile snapshot.
type SiteProfile struct {
	Name   string
	Events uint64
	Cycles uint64 // simulated cycles the clock advanced to reach this site's events
	WallNs int64  // host nanoseconds attributed to this site's callbacks
	Allocs uint64 // heap allocations attributed to this site's callbacks
}

// Profile is a snapshot of a Profiler: per-site rows ranked by simulated
// cycles (descending; ties by events then name), plus the totals.
type Profile struct {
	Sites  []SiteProfile
	Events uint64
	Cycles uint64
	WallNs int64
	Allocs uint64
}

// Snapshot renders the profiler's state as a ranked Profile. Sites that
// never fired are omitted.
func (p *Profiler) Snapshot() Profile {
	var out Profile
	if p == nil {
		return out
	}
	for i, c := range p.sites {
		if c.events == 0 && c.wallNs == 0 && c.allocs == 0 {
			continue
		}
		out.Sites = append(out.Sites, SiteProfile{
			Name:   Site(i).String(),
			Events: c.events,
			Cycles: c.cycles,
			WallNs: c.wallNs,
			Allocs: c.allocs,
		})
		out.Events += c.events
		out.Cycles += c.cycles
		out.WallNs += c.wallNs
		out.Allocs += c.allocs
	}
	sort.Slice(out.Sites, func(i, j int) bool {
		a, b := out.Sites[i], out.Sites[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		if a.Events != b.Events {
			return a.Events > b.Events
		}
		return a.Name < b.Name
	})
	return out
}

// WriteTable renders the profile as a ranked text table.
func (pr Profile) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-28s %12s %14s %7s %10s %12s %10s\n",
		"site", "events", "cycles", "cyc%", "ns/event", "wall-ms", "allocs")
	for _, s := range pr.Sites {
		pct := 0.0
		if pr.Cycles > 0 {
			pct = 100 * float64(s.Cycles) / float64(pr.Cycles)
		}
		nsPerEvent := 0.0
		if s.Events > 0 {
			nsPerEvent = float64(s.WallNs) / float64(s.Events)
		}
		fmt.Fprintf(w, "%-28s %12d %14d %6.1f%% %10.0f %12.2f %10d\n",
			s.Name, s.Events, s.Cycles, pct, nsPerEvent,
			float64(s.WallNs)/1e6, s.Allocs)
	}
	fmt.Fprintf(w, "%-28s %12d %14d %6.1f%% %10s %12.2f %10d\n",
		"TOTAL", pr.Events, pr.Cycles, 100.0, "", float64(pr.WallNs)/1e6, pr.Allocs)
}

// WriteFolded renders the profile in folded-stacks form, one line per
// site — "sim;mesh;deliver 12345" — with the site name split on dots and
// the sample value the (deterministic) simulated-cycle attribution, so the
// file feeds straight into standard flamegraph tooling. Lines are sorted
// by stack name.
func (pr Profile) WriteFolded(w io.Writer) {
	rows := make([]string, 0, len(pr.Sites))
	for _, s := range pr.Sites {
		if s.Cycles == 0 && s.Events == 0 {
			continue
		}
		stack := "sim;" + strings.ReplaceAll(s.Name, ".", ";")
		rows = append(rows, fmt.Sprintf("%s %d", stack, s.Cycles))
	}
	sort.Strings(rows)
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
}
