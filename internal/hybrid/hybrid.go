// Package hybrid implements the paper's §7 multi-device future work:
// "Reasonably supporting multiple devices would call for automatic operator
// placement. As a prerequisite, this requires an understanding of specific
// hardware properties, which could also be based on automatically generated
// device profiles. Once the cost model is defined, a hardware-aware query
// optimizer strategy is required to decide on the actual placement."
//
// The Engine here owns two Ocelot engines — the CPU and one GPU, labelled
// "CPU" and "GPU" — and calibrates a profile for each (core.Calibrate). It
// prices nothing: the cost model and the optimizer that uses it are the
// plan-level placement pass (mal.Session.place), which reads the profiles and
// pins every compute instruction to a device through On. The engine runs the
// pins it is given. A call nobody pinned runs where its Ocelot-owned inputs
// live, or else on the first live device, the CPU. Intermediates stay where
// they were produced; crossing devices goes through an explicit sync, exactly
// as the ownership rules of §3.4 prescribe. A device failure (out of device
// memory) falls back to the other device if it is alive; if both refuse,
// both errors are reported (errors.Join), none swallowed.
//
// A pin lives in the view On returns: it routes exactly one caller's
// operators to a fixed device without touching any engine-global state, so
// pinned plans cannot leak placement into each other and concurrent sessions
// can pin independently.
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
// (which the placement pass prices with) and the label placement pins
// address it by ("CPU" or "GPU").
type Dev struct {
	Eng   *core.Engine
	Prof  *core.Profile
	Label string
}

// Alive reports whether the device is usable: a device that failed with
// ErrDeviceLost (or was killed by fault injection) latches dead and is
// skipped by routing until revived.
func (d *Dev) Alive() bool { return !d.Eng.Device().Dead() }

// Engine is the placement layer over the CPU and GPU Ocelot engines. It
// implements ops.Operators, so it slots into the MAL session as a fifth
// configuration.
// All state is guarded for concurrent sessions; per-call device pins are
// carried by the view On returns, never by the engine itself.
type Engine struct {
	view // the unpinned ops.Operators facade

	devs []*Dev // ordered: the CPU, then the GPU

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
// pin. The zero pin runs each call where pick puts it; On returns pinned
// views. A view is a value: it holds no mutable state, so concurrent callers
// each carry their own placement without synchronisation.
type view struct {
	h   *Engine
	pin *Dev // nil: unpinned
}

// New builds the two-device engine: the CPU, whose driver threads sizes,
// and one simulated GPU with gpuMem bytes of device memory, each
// individually calibrated.
func New(threads int, gpuMem int64) (*Engine, error) {
	h := &Engine{
		owner:  map[*bat.BAT]*Dev{},
		moving: map[*bat.BAT]chan struct{}{},
		placed: map[string]map[string]int{},
	}
	for _, dev := range []*cl.Device{cl.NewCPUDevice(threads), cl.NewGPUDevice(gpuMem)} {
		eng, label := core.New(dev), dev.Const.Class.String()
		prof, err := core.Calibrate(dev)
		if err != nil {
			return nil, fmt.Errorf("hybrid: calibrating %s: %w", label, err)
		}
		h.devs = append(h.devs, &Dev{Eng: eng, Prof: prof, Label: label})
	}
	h.view = view{h: h}
	return h, nil
}

// NewN builds the engine New builds; gpus above 1 is an error.
//
// Deprecated: the hybrid is the CPU plus one GPU; use New.
func NewN(threads int, gpuMem int64, gpus int) (*Engine, error) {
	if gpus > 1 {
		return nil, fmt.Errorf("hybrid: %d GPUs requested, the engine has one", gpus)
	}
	return New(threads, gpuMem)
}

// Name implements ops.Operators.
func (h *Engine) Name() string { return "Ocelot[hybrid CPU+GPU]" }

// Module implements ops.Operators: every device runs the Ocelot module.
func (h *Engine) Module() string { return "ocelot" }

// On returns an ops.Operators view whose calls are pinned to the device with
// the given label ("CPU" or "GPU"); any other label returns the unpinned
// view.
// This is the hook plan-level placement drives: the executor routes each
// pinned instruction through the matching view, so a pin lives exactly as
// long as one operator call. Nothing is stored on the engine — an aborted
// plan cannot leak its pins into the next plan, and concurrent sessions
// cannot observe each other's pins. The pin wins over input-ownership
// forcing (migrate moves the inputs); the fallback to the other device still
// applies.
func (h *Engine) On(label string) ops.Operators {
	if d := h.byLabel(label); d != nil && d.Alive() {
		return view{h: h, pin: d}
	}
	// Unknown labels and dead devices run unpinned over the remaining
	// device — a plan pinned to a card that died mid-query keeps running
	// instead of dying with it.
	return view{h: h}
}

// byLabel resolves a device label; nil when nothing matches.
func (h *Engine) byLabel(label string) *Dev {
	for _, d := range h.devs {
		if d.Label == label {
			return d
		}
	}
	return nil
}

// Devices returns the two devices, CPU first (placement, tools and tests).
func (h *Engine) Devices() []*Dev { return append([]*Dev(nil), h.devs...) }

// OwnerClass reports the label of the device currently owning b's payload
// ("CPU" or "GPU"), or "" when b is host-resident — the residency fact the
// plan-level placement pass needs to cost transfers.
func (h *Engine) OwnerClass(b *bat.BAT) string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if own := h.owner[b]; own != nil {
		return own.Label
	}
	return ""
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

// forcedOwner returns the single device owning Ocelot-owned inputs, or nil
// when no input is owned or the ownership is split across devices (then
// everything syncs to the host and the call runs on the first live device).
// Ownership is the owner map's word alone — the map is only populated for
// Ocelot-owned BATs (adopt), and unlike the OcelotOwned field it is read
// under h.mu, so concurrent sessions on one engine can consult it without
// racing another session's producer.
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
// outright, then the single device owning the inputs, then the first live
// device — the CPU. Nothing is priced here: placement (mal.Session.place)
// owns the cost model, and under the hybrid configuration every compute
// instruction arrives pinned.
func (h *Engine) pick(pin *Dev, inputs []*bat.BAT) *Dev {
	if pin != nil && pin.Alive() {
		return pin
	}
	if forced := h.forcedOwner(inputs); forced != nil && forced.Alive() {
		return forced
	}
	for _, d := range h.devs {
		if d.Alive() {
			return d
		}
	}
	return h.devs[0] // every device dead: let the attempt surface the error
}

// migrate makes every input readable by target: inputs owned by another
// engine are synchronised back to the host (the §3.4 ownership hand-over),
// after which target uploads them like any base BAT.
func (h *Engine) migrate(target *Dev, inputs ...*bat.BAT) error {
	for _, b := range inputs {
		if b == nil {
			continue
		}
		if err := h.handOver(target, b); err != nil {
			return err
		}
	}
	return nil
}

// handOver syncs b off its owning device unless target already owns it;
// target nil is the host, which is what Sync asks for. Several sessions run
// concurrently on one engine and share its owner map, so each BAT's
// hand-over is single-flighted through the moving gate: one caller performs
// the sync, concurrent callers wait for the gate to close and re-check
// ownership — including a hand-over syncing b off target itself, so target
// never reads a half-written host copy. Within one session hand-overs
// follow plan order. The owner entry is removed only after the host copy is
// complete.
func (h *Engine) handOver(target *Dev, b *bat.BAT) error {
	for {
		h.mu.Lock()
		own, ch := h.owner[b], h.moving[b]
		if ch != nil {
			h.mu.Unlock()
			<-ch
			continue
		}
		if own == nil || own == target {
			h.mu.Unlock()
			if own == nil && target == nil && b.OcelotOwned {
				// A host hand-over of an Ocelot value whose ownership was
				// already handed off: sync it conservatively via the first
				// device. OcelotOwned is safe to read here: its only writer
				// is the producing engine, and a value is produced and
				// consumed by one session, whose instructions run in plan
				// order on one goroutine.
				return h.devs[0].Eng.Sync(b)
			}
			return nil
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

// chain executes try on the device pick chose, falling back to the other
// device, if it is alive, on failure (e.g. the GPU running out of memory
// mid-operator): the failed device's partial state is discarded, the inputs
// are migrated to the other device, and the retry runs there. On success the
// attempt's outputs are adopted by (and the placement recorded for) the
// device that ran it. When both devices fail, both failures are reported —
// joining the errors keeps the fallback's own failure visible next to the
// first device's; that joined report is also why generic failures try the
// other device rather than guessing which errors are deterministic
// refusals. Callers that *can* classify a refusal pass terminal: a terminal
// error surfaces immediately, before a migration is paid for a retry the
// other device would refuse identically.
//
// Failures are classified before falling over:
//   - transient (cl.ErrTransient — a dropped command, not a broken device):
//     one bounded retry on the SAME device, after discarding the attempt's
//     partial state. The data is already resident there; migrating to
//     another device over a hiccup would cost more than the retry.
//   - device loss (cl.ErrDeviceLost): the device has latched dead — pick,
//     the fallback and On all skip it from now on — and the chain falls
//     over like any failure. The discard still runs: releasing buffers on a
//     dead device is pure bookkeeping and keeps the leak accounting exact.
//   - everything else (capacity refusals included): the other device.
func (h *Engine) chain(pin *Dev, op string, inputs []*bat.BAT,
	terminal func(error) bool, try func(d *Dev) ([]*bat.BAT, error)) ([]*bat.BAT, error) {
	var errs []error
	var failed []*Dev
	devices := []*Dev{h.pick(pin, inputs)}
	for i := 0; i < len(devices); i++ {
		d := devices[i]
		if err := h.migrate(d, inputs...); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", d.Label, err))
		} else {
			// The migrate above moved ownership off the device that already
			// failed; now its leftover input copies can be shed too.
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
			// First failure: the other device, if it is alive (the common
			// success path never builds the list).
			for _, o := range h.devs {
				if o != d && o.Alive() {
					devices = append(devices, o)
				}
			}
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
func (h *Engine) run(pin *Dev, op string, inputs []*bat.BAT, f func(e *core.Engine) ([]*bat.BAT, error)) ([]*bat.BAT, error) {
	return h.chain(pin, op, inputs, nil, func(d *Dev) ([]*bat.BAT, error) { return f(d.Eng) })
}

// --- ops.Operators, implemented on view so each caller carries its own pin ---

// Name implements ops.Operators on pinned views.
func (v view) Name() string { return v.h.Name() }

// Module implements ops.Operators on pinned views.
func (v view) Module() string { return v.h.Module() }

// Select routes the selection.
func (v view) Select(col, cand *bat.BAT, lo, hi float64, loIncl, hiIncl bool) (*bat.BAT, error) {
	outs, err := v.h.run(v.pin, "select", []*bat.BAT{col, cand}, func(e *core.Engine) ([]*bat.BAT, error) {
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
	outs, err := v.h.run(v.pin, "selectcmp", []*bat.BAT{a, b, cand}, func(e *core.Engine) ([]*bat.BAT, error) {
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
	outs, err := v.h.run(v.pin, "leftfetchjoin", []*bat.BAT{cand, col}, func(e *core.Engine) ([]*bat.BAT, error) {
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
	outs, err := v.h.run(v.pin, "join", []*bat.BAT{l, r}, func(e *core.Engine) ([]*bat.BAT, error) {
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
	outs, err := v.h.run(v.pin, "thetajoin", []*bat.BAT{l, r}, func(e *core.Engine) ([]*bat.BAT, error) {
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
	outs, err := v.h.run(v.pin, "semijoin", []*bat.BAT{l, r}, func(e *core.Engine) ([]*bat.BAT, error) {
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
	outs, err := v.h.run(v.pin, "antijoin", []*bat.BAT{l, r}, func(e *core.Engine) ([]*bat.BAT, error) {
		a, err := e.AntiJoin(l, r)
		return []*bat.BAT{a}, err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// BuildHash builds the table on the chosen device, walking the same
// fallback chain as run; the handle pins later probes to the
// device that built it.
func (v view) BuildHash(col *bat.BAT) (ops.HashTable, error) {
	var pt *placedTable
	_, err := v.h.chain(v.pin, "buildhash", []*bat.BAT{col}, nil, func(d *Dev) ([]*bat.BAT, error) {
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
	_, err := v.h.run(v.pin, "group", []*bat.BAT{col, grp}, func(e *core.Engine) ([]*bat.BAT, error) {
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
	outs, err := v.h.run(v.pin, kind.String(), []*bat.BAT{vals, groups}, func(e *core.Engine) ([]*bat.BAT, error) {
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
	outs, err := v.h.run(v.pin, "sort", []*bat.BAT{col}, func(e *core.Engine) ([]*bat.BAT, error) {
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
	outs, err := v.h.run(v.pin, "binop", []*bat.BAT{a, b}, func(e *core.Engine) ([]*bat.BAT, error) {
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
	outs, err := v.h.run(v.pin, "binopconst", []*bat.BAT{a}, func(e *core.Engine) ([]*bat.BAT, error) {
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
// with only the region's external inputs migrated — interior values never
// exist, so they can never be shipped. The out-of-memory
// fallback chain applies like any operator, but a shape refusal
// (ErrFusedUnsupported) surfaces immediately: every device would refuse the
// same shape for the same reason, so retrying elsewhere would only migrate
// every input across PCIe for nothing before the executor falls back to the
// unfused members anyway.
func (v view) Fused(op *ops.FusedOp) ([]*bat.BAT, error) {
	unsupported := func(err error) bool { return errors.Is(err, ops.ErrFusedUnsupported) }
	return v.h.chain(v.pin, "fused", op.Inputs(), unsupported, func(d *Dev) ([]*bat.BAT, error) {
		return d.Eng.Fused(op)
	})
}

// OIDUnion routes the disjunction combine.
func (v view) OIDUnion(a, b *bat.BAT) (*bat.BAT, error) {
	outs, err := v.h.run(v.pin, "union", []*bat.BAT{a, b}, func(e *core.Engine) ([]*bat.BAT, error) {
		r, err := e.OIDUnion(a, b)
		return []*bat.BAT{r}, err
	})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Sync hands a BAT back to the host via its owning device: the host-target
// case of handOver, single-flighted with any concurrent migration of the
// same value.
func (v view) Sync(b *bat.BAT) error {
	if b == nil {
		return nil
	}
	return v.h.handOver(nil, b)
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
