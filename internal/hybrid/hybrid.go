// Package hybrid implements the paper's §7 multi-device future work:
// "Reasonably supporting multiple devices would call for automatic operator
// placement. As a prerequisite, this requires an understanding of specific
// hardware properties, which could also be based on automatically generated
// device profiles. Once the cost model is defined, a hardware-aware query
// optimizer strategy is required to decide on the actual placement."
//
// The Engine here owns an ordered set of Ocelot engines — one per device —
// calibrates a profile for each (core.Calibrate), and routes every operator
// call to the device with the lowest estimated cost: streamed bytes over the
// profiled scan bandwidth, plus the PCIe cost of shipping any inputs that
// are not already resident on the device. Intermediates stay where they were
// produced; crossing devices goes through an explicit sync, exactly as the
// ownership rules of §3.4 prescribe. A device failure (out of device memory)
// falls back through the *remaining* devices in cost order; if every device
// refuses, the per-device errors are all reported (errors.Join), none
// swallowed.
//
// Plan-level placement pins individual calls through On: the returned view
// routes exactly one caller's operators to a fixed device without touching
// any engine-global state, so pinned plans cannot leak placement into each
// other and concurrent sessions can pin independently. With more than one
// device of a class the instances carry indexed labels (GPU0, GPU1, …) and
// pins address them individually.
package hybrid

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/ops"
)

// Dev is one placement target: an Ocelot engine with its calibrated profile
// and the instance label placement pins address it by ("CPU", "GPU" when the
// engine has a single GPU, "GPU0"/"GPU1"/… otherwise).
type Dev struct {
	Eng   *core.Engine
	Prof  *core.Profile
	Label string
}

// Class returns the device's architecture class label ("CPU"/"GPU").
func (d *Dev) Class() string { return d.Eng.Device().Const.Class.String() }

// Alive reports whether the device is usable: a device that failed with
// ErrDeviceLost (or was killed by fault injection) latches dead and is
// skipped by routing until revived.
func (d *Dev) Alive() bool { return !d.Eng.Device().Dead() }

// Engine is the placement layer over N Ocelot engines. It implements
// ops.Operators, so it slots into the MAL session as a fifth configuration.
// All state is guarded for concurrent sessions; per-call device pins are
// carried by the view On returns, never by the engine itself.
type Engine struct {
	view // the unpinned ops.Operators facade (cost-model routing)

	devs []*Dev // ordered: CPU first, then the GPUs

	mu    sync.Mutex
	owner map[*bat.BAT]*Dev // device owning each Ocelot-owned BAT
	// moving single-flights per-BAT host hand-overs: while a sync for b is
	// in flight the channel is present, and concurrent migrations or syncs
	// of b wait for it to close instead of racing a second sync. The owner
	// entry is removed only after the host copy is complete, so owner==nil
	// with no gate means host-resident-and-complete.
	moving map[*bat.BAT]chan struct{}
	// placement counters (observability for tests and tools), keyed by
	// operator then device label.
	placed map[string]map[string]int
	// transientRetries counts same-device retries after an injected (or
	// driver-reported) transient command failure.
	transientRetries int64
}

// view is an ops.Operators facade over the engine with an optional device
// pin. The zero pin routes through the cost model; On returns pinned views.
// A view is a value: it holds no mutable state, so concurrent callers each
// carry their own placement without synchronisation.
type view struct {
	h   *Engine
	pin *Dev // nil: cost-model choice
}

// New builds a two-device engine (one CPU + one GPU) and calibrates the
// profiles. threads sizes the CPU driver, gpuMem the simulated device
// memory.
func New(threads int, gpuMem int64) (*Engine, error) {
	return NewN(threads, gpuMem, 1)
}

// NewN builds the N-device engine: one CPU plus gpus simulated GPUs, each
// with gpuMem bytes of device memory, each individually calibrated. With a
// single GPU its label is "GPU" (the two-device configuration the paper's §7
// sketch starts from); with more they are "GPU0", "GPU1", ….
func NewN(threads int, gpuMem int64, gpus int) (*Engine, error) {
	if gpus <= 0 {
		gpus = 1
	}
	h := &Engine{
		owner:  map[*bat.BAT]*Dev{},
		moving: map[*bat.BAT]chan struct{}{},
		placed: map[string]map[string]int{},
	}
	add := func(eng *core.Engine, label string) error {
		prof, err := core.Calibrate(eng.Device())
		if err != nil {
			return fmt.Errorf("hybrid: calibrating %s: %w", label, err)
		}
		eng.SetProfile(prof)
		h.devs = append(h.devs, &Dev{Eng: eng, Prof: prof, Label: label})
		return nil
	}
	if err := add(core.New(cl.NewCPUDevice(threads)), cl.ClassCPU.String()); err != nil {
		return nil, err
	}
	for i := 0; i < gpus; i++ {
		label := cl.ClassGPU.String()
		if gpus > 1 {
			label = fmt.Sprintf("%s%d", label, i)
		}
		if err := add(core.New(cl.NewGPUDevice(gpuMem)), label); err != nil {
			return nil, err
		}
	}
	h.view = view{h: h}
	return h, nil
}

// Name implements ops.Operators.
func (h *Engine) Name() string {
	if len(h.devs) == 2 {
		return "Ocelot[hybrid CPU+GPU]"
	}
	return fmt.Sprintf("Ocelot[hybrid CPU+%dGPU]", len(h.devs)-1)
}

// Module implements ops.Operators: every device runs the Ocelot module.
func (h *Engine) Module() string { return "ocelot" }

// On returns an ops.Operators view whose calls are pinned to the device with
// the given label. Exact instance labels ("CPU", "GPU1") win; a bare class
// label selects the first device of that class (so "GPU" still resolves on a
// multi-GPU engine); any other label returns the unpinned cost-model view.
// This is the hook plan-level placement drives: the executor routes each
// pinned instruction through the matching view, so a pin lives exactly as
// long as one operator call. Nothing is stored on the engine — an aborted
// plan cannot leak its pins into the next plan, and concurrent sessions
// cannot observe each other's pins. The pin wins over input-ownership
// forcing (migrate moves the inputs); the cost-ordered fallback through the
// remaining devices still applies.
func (h *Engine) On(label string) ops.Operators {
	if d := h.byLabel(label); d != nil && d.Alive() {
		return view{h: h, pin: d}
	}
	// Unknown labels and dead devices route through the cost model over the
	// remaining devices — a plan pinned to a card that died mid-query keeps
	// running instead of dying with it.
	return view{h: h}
}

// byLabel resolves an instance label, falling back to the first device of a
// bare class label; nil when nothing matches.
func (h *Engine) byLabel(label string) *Dev {
	for _, d := range h.devs {
		if d.Label == label {
			return d
		}
	}
	for _, d := range h.devs {
		if d.Class() == label {
			return d
		}
	}
	return nil
}

// Devices returns the ordered device set (placement, tools and tests).
func (h *Engine) Devices() []*Dev { return append([]*Dev(nil), h.devs...) }

// OwnerClass reports the label of the device currently owning b's payload
// ("CPU", "GPU0", …), or "" when b is host-resident — the residency fact the
// plan-level placement pass needs to cost transfers.
func (h *Engine) OwnerClass(b *bat.BAT) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if own := h.owner[b]; own != nil {
		return own.Label
	}
	return ""
}

// Profiles returns the calibrated profiles of the first CPU and the first
// GPU device (the two-device view predating NewN; Devices has them all).
func (h *Engine) Profiles() (cpu, gpu *core.Profile) {
	return h.byLabel(cl.ClassCPU.String()).Prof, h.byLabel(cl.ClassGPU.String()).Prof
}

// Placements returns how many times each operator ran on each device.
func (h *Engine) Placements() map[string]map[string]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]map[string]int, len(h.placed))
	for op, m := range h.placed {
		c := make(map[string]int, len(m))
		for k, v := range m {
			c[k] = v
		}
		out[op] = c
	}
	return out
}

// Engines returns the first CPU and first GPU engine (the two-device view
// predating NewN; Devices has them all).
func (h *Engine) Engines() (cpu, gpu *core.Engine) {
	return h.byLabel(cl.ClassCPU.String()).Eng, h.byLabel(cl.ClassGPU.String()).Eng
}

func (h *Engine) note(op string, target *Dev) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.placed[op]
	if m == nil {
		m = map[string]int{}
		h.placed[op] = m
	}
	m[target.Label]++
}

// batBytes estimates a BAT's payload volume.
func batBytes(b *bat.BAT) int64 {
	if b == nil {
		return 0
	}
	if n := b.HeapBytes(); n > 0 {
		return n
	}
	return int64(b.Len()) * 4
}

// devCost prices running an operator streaming bytes on d: the streamed
// volume over the profiled scan rate, the launch overhead, and — on discrete
// devices — the link cost of shipping every input without a resident device
// copy.
func (h *Engine) devCost(d *Dev, inputs []*bat.BAT, bytes int64) float64 {
	c := secs(bytes, d.Prof.ScanBandwidth) + d.Prof.LaunchOverhead.Seconds()
	dev := d.Eng.Device()
	if dev.Discrete {
		var ship int64
		for _, b := range inputs {
			if b != nil && !d.Eng.Memory().HasDeviceCopy(b) {
				ship += batBytes(b)
			}
		}
		c += secs(ship, dev.Perf.TransferBandwidth)
	}
	return c
}

// forcedOwner returns the single device owning Ocelot-owned inputs, or nil
// when no input is owned or the ownership is split across devices (then
// everything syncs to the host and the cost model decides). Ownership is
// the owner map's word alone — the map is only populated for Ocelot-owned
// BATs (adopt), and unlike the OcelotOwned field it is read under h.mu, so
// concurrent device lanes can consult it without racing a producer.
func (h *Engine) forcedOwner(inputs []*bat.BAT) *Dev {
	h.mu.Lock()
	defer h.mu.Unlock()
	var forced *Dev
	for _, b := range inputs {
		if b == nil {
			continue
		}
		if own := h.owner[b]; own != nil {
			if forced != nil && forced != own {
				return nil
			}
			forced = own
		}
	}
	return forced
}

// pick chooses the device an operator attempts first: an explicit pin wins
// outright, then the single owning device of the inputs, then the cost
// argmin (equal costs keep construction order: CPU, GPU0, GPU1, …). The
// common pinned path costs nothing — under plan-level placement every
// instruction arrives pinned, and the fallback chain is only priced when an
// attempt actually fails (fallbackOrder).
func (h *Engine) pick(pin *Dev, inputs []*bat.BAT, bytes int64) *Dev {
	if pin != nil && pin.Alive() {
		return pin
	}
	if forced := h.forcedOwner(inputs); forced != nil && forced.Alive() {
		return forced
	}
	var best *Dev
	var bestCost float64
	for _, d := range h.devs {
		if !d.Alive() {
			continue
		}
		if c := h.devCost(d, inputs, bytes); best == nil || c < bestCost {
			best, bestCost = d, c
		}
	}
	if best == nil {
		best = h.devs[0] // every device dead: let the attempt surface the error
	}
	return best
}

// fallbackOrder returns every device except failedFirst by ascending
// estimated cost — the chain a device failure walks. It is computed lazily,
// on the failure path only.
func (h *Engine) fallbackOrder(failedFirst *Dev, inputs []*bat.BAT, bytes int64) []*Dev {
	out := make([]*Dev, 0, len(h.devs)-1)
	costs := make([]float64, 0, len(h.devs)-1)
	for _, d := range h.devs {
		if d == failedFirst || !d.Alive() {
			continue
		}
		out = append(out, d)
		costs = append(costs, h.devCost(d, inputs, bytes))
	}
	// Stable insertion sort by cost keeps equal-cost devices in their
	// construction order — deterministic fallback.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && costs[j] < costs[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
			costs[j], costs[j-1] = costs[j-1], costs[j]
		}
	}
	return out
}

// order returns the full attempt order (pick's choice plus the fallback
// chain); tools and tests — the operator paths build it lazily instead.
func (h *Engine) order(pin *Dev, inputs []*bat.BAT, bytes int64) []*Dev {
	first := h.pick(pin, inputs, bytes)
	return append([]*Dev{first}, h.fallbackOrder(first, inputs, bytes)...)
}

func secs(bytes int64, rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return float64(bytes) / rate
}

// migrate makes every input readable by target: inputs owned by another
// engine are synchronised back to the host (the §3.4 ownership hand-over),
// after which target uploads them like any base BAT. Under the parallel
// plan executor two device lanes can need the same input at once, so each
// BAT's hand-over is single-flighted through the moving gate: one caller
// performs the sync, concurrent callers wait for the gate to close and
// re-check ownership.
func (h *Engine) migrate(target *Dev, inputs ...*bat.BAT) error {
	for _, b := range inputs {
		if b == nil {
			continue
		}
		if err := h.migrateOne(target, b); err != nil {
			return err
		}
	}
	return nil
}

// migrateOne syncs one BAT off its owning device (when that device is not
// target), waiting out any concurrent hand-over of the same BAT — including
// one syncing it off target itself, so target never reads a half-written
// host copy.
func (h *Engine) migrateOne(target *Dev, b *bat.BAT) error {
	for {
		h.mu.Lock()
		own := h.owner[b]
		ch := h.moving[b]
		if own == nil || own == target {
			h.mu.Unlock()
			if ch != nil {
				<-ch
				continue
			}
			return nil
		}
		if ch != nil {
			h.mu.Unlock()
			<-ch
			continue
		}
		ch = make(chan struct{})
		h.moving[b] = ch
		h.mu.Unlock()
		err := own.Eng.Sync(b)
		h.mu.Lock()
		if err == nil {
			delete(h.owner, b)
		}
		delete(h.moving, b)
		h.mu.Unlock()
		close(ch)
		if err != nil {
			if !own.Alive() {
				// The owner died with the data: drain its queue and shed
				// its device caches so the corpse's accounting is exact.
				_ = own.Eng.Finish()
				own.Eng.PurgeDeviceCache()
			}
			return fmt.Errorf("hybrid: migrating %q: %w", b.Name, err)
		}
		return nil
	}
}

// adopt records target as the owner of freshly produced BATs.
func (h *Engine) adopt(target *Dev, outs ...*bat.BAT) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, b := range outs {
		if b != nil && b.OcelotOwned {
			h.owner[b] = target
		}
	}
}

// discard drops the state a failed attempt left on d: any outputs the
// operator partially produced, and d's device-side copies of inputs whose
// authoritative copy lives elsewhere (the host, or another owning device) —
// an upload cache the failed attempt populated, or the leftover buffer of an
// input the fallback migration just synced off d. Without this an
// OOM-triggered fallback would worsen the very pressure that caused it.
// Inputs d still owns are untouched: d holds their only copy until a later
// migrate hands them over.
func (h *Engine) discard(d *Dev, inputs, outs []*bat.BAT) {
	for _, b := range outs {
		if b != nil {
			d.Eng.Release(b)
		}
	}
	for _, b := range inputs {
		if b == nil {
			continue
		}
		h.mu.Lock()
		own := h.owner[b]
		h.mu.Unlock()
		if own != d {
			d.Eng.Release(b)
		}
	}
}

// chain executes try on the device pick chose, walking the cost-ordered
// fallback chain on failure (e.g. a GPU running out of memory
// mid-operator): each failed device's partial state is discarded, the
// inputs are migrated to the next device, and the retry runs there. On
// success the attempt's outputs are adopted by (and the placement recorded
// for) the device that ran it. When every device fails, every failure is
// reported — joining the errors keeps the fallback's own failure visible
// next to the first device's; that joined report is also why generic
// failures walk the whole chain rather than guessing which errors are
// deterministic refusals. Callers that *can* classify a refusal pass
// terminal: a terminal error surfaces immediately, before any further
// migration is paid for a retry every device would refuse identically.
//
// Failures are classified before falling over:
//   - transient (cl.ErrTransient — a dropped command, not a broken device):
//     one bounded retry on the SAME device, after discarding the attempt's
//     partial state. The data is already resident there; migrating to
//     another device over a hiccup would cost more than the retry.
//   - device loss (cl.ErrDeviceLost): the device has latched dead — pick,
//     fallbackOrder and On all skip it from now on — and the chain falls
//     over like any failure. The discard still runs: releasing buffers on a
//     dead device is pure bookkeeping and keeps the leak accounting exact.
//   - everything else (capacity refusals included): cost-ordered fallback.
func (h *Engine) chain(pin *Dev, op string, inputs []*bat.BAT, bytes int64,
	terminal func(error) bool, try func(d *Dev) ([]*bat.BAT, error)) ([]*bat.BAT, error) {
	var errs []error
	var failed []*Dev
	devices := []*Dev{h.pick(pin, inputs, bytes)}
	for i := 0; i < len(devices); i++ {
		d := devices[i]
		if err := h.migrate(d, inputs...); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", d.Label, err))
		} else {
			// The migrate above moved ownership off the devices that already
			// failed; now their leftover input copies can be shed too.
			for _, fd := range failed {
				h.discard(fd, inputs, nil)
			}
			outs, err := try(d)
			if err != nil && errors.Is(err, cl.ErrTransient) && d.Alive() {
				h.discard(d, inputs, outs)
				_ = d.Eng.Finish() // consume the errors the attempt latched in the queue
				h.mu.Lock()
				h.transientRetries++
				h.mu.Unlock()
				outs, err = try(d)
			}
			if err == nil {
				h.note(op, d)
				h.adopt(d, outs...)
				return outs, nil
			}
			if terminal != nil && terminal(err) {
				return nil, err
			}
			errs = append(errs, fmt.Errorf("%s: %w", d.Label, err))
			h.discard(d, inputs, outs)
			// Drain the device so errors the failed attempt latched in its
			// queue cannot resurface from an unrelated later Finish.
			_ = d.Eng.Finish()
			if !d.Alive() {
				// It died under us: its device caches are unreachable now,
				// so release them — a corpse must account for zero bytes.
				d.Eng.PurgeDeviceCache()
			}
			failed = append(failed, d)
		}
		if i == 0 {
			// First failure: price the rest of the chain now (the common
			// success path never pays for it).
			devices = append(devices, h.fallbackOrder(d, inputs, bytes)...)
		}
	}
	return nil, fmt.Errorf("hybrid: %s failed on all devices: %w", op, errors.Join(errs...))
}

// TransientRetries reports how many transient failures were absorbed by a
// same-device retry.
func (h *Engine) TransientRetries() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.transientRetries
}

// run is chain over an engine-level operator closure with no terminal
// classification (every view method below routes through it).
func (h *Engine) run(pin *Dev, op string, inputs []*bat.BAT, bytes int64, f func(e *core.Engine) ([]*bat.BAT, error)) ([]*bat.BAT, error) {
	return h.chain(pin, op, inputs, bytes, nil, func(d *Dev) ([]*bat.BAT, error) { return f(d.Eng) })
}

// --- ops.Operators, implemented on view so each caller carries its own pin ---

// Name implements ops.Operators on pinned views.
func (v view) Name() string { return v.h.Name() }

// Module implements ops.Operators on pinned views.
func (v view) Module() string { return v.h.Module() }

// Select routes the selection.
func (v view) Select(col, cand *bat.BAT, lo, hi float64, loIncl, hiIncl bool) (*bat.BAT, error) {
	outs, err := v.h.run(v.pin, "select", []*bat.BAT{col, cand}, batBytes(col), func(e *core.Engine) ([]*bat.BAT, error) {
		r, err := e.Select(col, cand, lo, hi, loIncl, hiIncl)
		return []*bat.BAT{r}, err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// SelectCmp routes the column-comparison selection.
func (v view) SelectCmp(a, b *bat.BAT, cmp ops.Cmp, cand *bat.BAT) (*bat.BAT, error) {
	outs, err := v.h.run(v.pin, "selectcmp", []*bat.BAT{a, b, cand}, batBytes(a)*2, func(e *core.Engine) ([]*bat.BAT, error) {
		r, err := e.SelectCmp(a, b, cmp, cand)
		return []*bat.BAT{r}, err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Project routes the gather.
func (v view) Project(cand, col *bat.BAT) (*bat.BAT, error) {
	outs, err := v.h.run(v.pin, "leftfetchjoin", []*bat.BAT{cand, col}, batBytes(cand)+batBytes(col), func(e *core.Engine) ([]*bat.BAT, error) {
		r, err := e.Project(cand, col)
		return []*bat.BAT{r}, err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Join routes the hash join.
func (v view) Join(l, r *bat.BAT) (*bat.BAT, *bat.BAT, error) {
	outs, err := v.h.run(v.pin, "join", []*bat.BAT{l, r}, 3*(batBytes(l)+batBytes(r)), func(e *core.Engine) ([]*bat.BAT, error) {
		a, b, err := e.Join(l, r)
		return []*bat.BAT{a, b}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return outs[0], outs[1], nil
}

// ThetaJoin routes the nested-loop join.
func (v view) ThetaJoin(l, r *bat.BAT, cmp ops.Cmp) (*bat.BAT, *bat.BAT, error) {
	outs, err := v.h.run(v.pin, "thetajoin", []*bat.BAT{l, r}, batBytes(l)*int64(r.Len()+1), func(e *core.Engine) ([]*bat.BAT, error) {
		a, b, err := e.ThetaJoin(l, r, cmp)
		return []*bat.BAT{a, b}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return outs[0], outs[1], nil
}

// SemiJoin routes the existence join.
func (v view) SemiJoin(l, r *bat.BAT) (*bat.BAT, error) {
	outs, err := v.h.run(v.pin, "semijoin", []*bat.BAT{l, r}, 2*(batBytes(l)+batBytes(r)), func(e *core.Engine) ([]*bat.BAT, error) {
		a, err := e.SemiJoin(l, r)
		return []*bat.BAT{a}, err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// AntiJoin routes the negated existence join.
func (v view) AntiJoin(l, r *bat.BAT) (*bat.BAT, error) {
	outs, err := v.h.run(v.pin, "antijoin", []*bat.BAT{l, r}, 2*(batBytes(l)+batBytes(r)), func(e *core.Engine) ([]*bat.BAT, error) {
		a, err := e.AntiJoin(l, r)
		return []*bat.BAT{a}, err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// BuildHash builds the table on the chosen device, walking the same
// cost-ordered fallback chain as run; the handle pins later probes to the
// device that built it.
func (v view) BuildHash(col *bat.BAT) (ops.HashTable, error) {
	var pt *placedTable
	_, err := v.h.chain(v.pin, "buildhash", []*bat.BAT{col}, 4*batBytes(col), nil, func(d *Dev) ([]*bat.BAT, error) {
		ht, err := d.Eng.BuildHash(col)
		if err != nil {
			return nil, err
		}
		pt = &placedTable{HashTable: ht, home: d}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return pt, nil
}

// placedTable pins a hash table to the device that built it.
type placedTable struct {
	ops.HashTable
	home *Dev
}

// HashProbe runs on the device owning the table.
func (v view) HashProbe(probe *bat.BAT, ht ops.HashTable) (*bat.BAT, *bat.BAT, error) {
	h := v.h
	pt, ok := ht.(*placedTable)
	if !ok {
		return nil, nil, fmt.Errorf("hybrid: foreign hash table %T", ht)
	}
	if err := h.migrate(pt.home, probe); err != nil {
		return nil, nil, err
	}
	l, r, err := pt.home.Eng.HashProbe(probe, pt.HashTable)
	if err != nil {
		return nil, nil, err
	}
	h.note("hashprobe", pt.home)
	h.adopt(pt.home, l, r)
	return l, r, nil
}

// Group routes the grouping.
func (v view) Group(col, grp *bat.BAT, ngrp int) (*bat.BAT, int, error) {
	var out *bat.BAT
	var n int
	_, err := v.h.run(v.pin, "group", []*bat.BAT{col, grp}, 6*batBytes(col), func(e *core.Engine) ([]*bat.BAT, error) {
		g, ng, err := e.Group(col, grp, ngrp)
		out, n = g, ng
		return []*bat.BAT{g}, err
	})
	if err != nil {
		return nil, 0, err
	}
	return out, n, nil
}

// Aggr routes the aggregation.
func (v view) Aggr(kind ops.Agg, vals, groups *bat.BAT, ngroups int) (*bat.BAT, error) {
	outs, err := v.h.run(v.pin, kind.String(), []*bat.BAT{vals, groups}, batBytes(vals)+batBytes(groups), func(e *core.Engine) ([]*bat.BAT, error) {
		r, err := e.Aggr(kind, vals, groups, ngroups)
		return []*bat.BAT{r}, err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Sort routes the radix sort (multi-pass: heavy traffic).
func (v view) Sort(col *bat.BAT) (*bat.BAT, *bat.BAT, error) {
	outs, err := v.h.run(v.pin, "sort", []*bat.BAT{col}, 10*batBytes(col), func(e *core.Engine) ([]*bat.BAT, error) {
		s, o, err := e.Sort(col)
		return []*bat.BAT{s, o}, err
	})
	if err != nil {
		return nil, nil, err
	}
	return outs[0], outs[1], nil
}

// Binop routes the arithmetic map.
func (v view) Binop(op ops.Bin, a, b *bat.BAT) (*bat.BAT, error) {
	outs, err := v.h.run(v.pin, "binop", []*bat.BAT{a, b}, batBytes(a)*3, func(e *core.Engine) ([]*bat.BAT, error) {
		r, err := e.Binop(op, a, b)
		return []*bat.BAT{r}, err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// BinopConst routes the constant arithmetic map.
func (v view) BinopConst(op ops.Bin, a *bat.BAT, c float64, constFirst bool) (*bat.BAT, error) {
	outs, err := v.h.run(v.pin, "binopconst", []*bat.BAT{a}, batBytes(a)*2, func(e *core.Engine) ([]*bat.BAT, error) {
		r, err := e.BinopConst(op, a, c, constFirst)
		return []*bat.BAT{r}, err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Fused routes a fused region (ops.FusedOperators) to one device as a
// single placement unit: the whole member chain runs where the pick lands,
// with only the region's external inputs costed for transfer — interior
// values never exist, so they can never be shipped. The out-of-memory
// fallback chain applies like any operator, but a shape refusal
// (ErrFusedUnsupported) surfaces immediately: every device would refuse the
// same shape for the same reason, so retrying elsewhere would only migrate
// every input across PCIe for nothing before the executor falls back to the
// unfused members anyway.
func (v view) Fused(op *ops.FusedOp) ([]*bat.BAT, error) {
	h := v.h
	inputs := op.Inputs()
	var bytes int64
	for _, b := range inputs {
		bytes += batBytes(b)
	}
	unsupported := func(err error) bool { return errors.Is(err, ops.ErrFusedUnsupported) }
	return h.chain(v.pin, "fused", inputs, bytes, unsupported, func(d *Dev) ([]*bat.BAT, error) {
		return d.Eng.Fused(op)
	})
}

// OIDUnion routes the disjunction combine.
func (v view) OIDUnion(a, b *bat.BAT) (*bat.BAT, error) {
	outs, err := v.h.run(v.pin, "union", []*bat.BAT{a, b}, batBytes(a)+batBytes(b), func(e *core.Engine) ([]*bat.BAT, error) {
		r, err := e.OIDUnion(a, b)
		return []*bat.BAT{r}, err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Sync hands a BAT back to the host via its owning device, single-flighted
// per BAT through the moving gate so a concurrent migration of the same
// value (another lane shipping it as an input) and this hand-over never run
// two syncs at once. The owner entry is removed only after the host copy is
// complete.
func (v view) Sync(b *bat.BAT) error {
	h := v.h
	if b == nil {
		return nil
	}
	for {
		h.mu.Lock()
		own := h.owner[b]
		ch := h.moving[b]
		if own == nil {
			h.mu.Unlock()
			if ch != nil {
				<-ch
				continue
			}
			// No recorded owner and no hand-over in flight: either a plain
			// host BAT (nothing to do), or an Ocelot value whose ownership
			// was already handed off — conservatively sync via the first
			// device, as before. OcelotOwned is safe to read here: its only
			// writer is the producing engine, ordered before this consumer
			// by the plan's dependency edges.
			if !b.OcelotOwned {
				return nil
			}
			return h.devs[0].Eng.Sync(b)
		}
		if ch != nil {
			h.mu.Unlock()
			<-ch
			continue
		}
		ch = make(chan struct{})
		h.moving[b] = ch
		h.mu.Unlock()
		err := own.Eng.Sync(b)
		h.mu.Lock()
		if err == nil {
			delete(h.owner, b)
		}
		delete(h.moving, b)
		h.mu.Unlock()
		close(ch)
		return err
	}
}

// Release drops device state on the owning device — or on every device when
// no owner is recorded (cached copies of base BATs can exist anywhere).
func (v view) Release(b *bat.BAT) {
	h := v.h
	if b == nil {
		return
	}
	h.mu.Lock()
	own := h.owner[b]
	delete(h.owner, b)
	h.mu.Unlock()
	if own != nil {
		own.Eng.Release(b)
		return
	}
	for _, d := range h.devs {
		d.Eng.Release(b)
	}
}

// Finish drains every device. A dead device's latched ErrDeviceLost is not
// an error of the *plan* — the chain already recovered the affected
// operators elsewhere — so only live devices' errors surface.
func (v view) Finish() error {
	var first error
	for _, d := range v.h.devs {
		err := d.Eng.Finish()
		if !d.Alive() {
			d.Eng.PurgeDeviceCache() // corpse accounting: shed dead caches
			continue
		}
		if err != nil && first == nil && !errors.Is(err, cl.ErrDeviceLost) {
			first = err
		}
	}
	return first
}
