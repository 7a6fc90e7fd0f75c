// Plan fragments and their device lanes: PR 1 lifted spawn-per-command
// execution into a dependency-counting *command* scheduler inside each
// device; this file lifts the same idea to the *plan* level. On a
// multi-device engine a rewritten fragment carries an explicit dependency
// graph over its PInstrs (producers → consumers, group-count producers →
// users, release-after-last-use, sync-after-producer) and a partition into
// device lanes by placement pin. Both are a pure function of the
// instructions and their pins, so they are derived once — when the fragment
// is flushed, and again at seal for the fragments whose pins the seal-time
// re-placement moved — and stored with the fragment; a replay only allocates
// its completion channels. Within a lane instructions run strictly in plan
// order — so each device's lazy command queue sees exactly the serial
// sequence and per-device semantics (and byte-identical results, given the
// order-stable kernels of PR 5) are preserved — while instructions pinned to
// different devices overlap, letting one session keep the CPU and the GPU
// busy at once instead of only overlapping through the queues. Syncs are
// joins: a Sync waits on its producer's lane like any consumer.
package mal

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/hybrid"
)

// fragment is one rewritten flush fragment as the executor runs it: the
// instructions in plan order plus, on a multi-device engine, the dependency
// graph and lane partition their pins imply (all three nil on single-device
// engines, which have no lanes).
type fragment struct {
	instrs []*PInstr
	// deps[i] are the earlier instructions i waits for, laneOf[i] the device
	// lane i runs on, lanes the partition itself: each lane's instructions in
	// ascending plan order, lanes ordered by their first instruction.
	deps   [][]int
	laneOf []string
	lanes  [][]int
}

// newFragment wraps a rewritten batch, deriving its graph when the engine
// has device lanes to run it on.
func (s *Session) newFragment(batch []*PInstr) fragment {
	if _, ok := s.o.(*hybrid.Engine); !ok {
		return fragment{instrs: batch}
	}
	return s.planGraph(batch)
}

// planGraph builds the per-fragment dependency graph and the lane
// partition. Every edge points backward (dep index < own index), which
// makes the schedule deadlock-free by induction: node 0 is always ready,
// and each lane processes its nodes in ascending index order.
//
// Edges:
//   - data: an instruction depends on the producer of each (canonicalised)
//     argument, including the arguments of fused-region members;
//   - group counts: a symbolic ngrp reference depends on the Group
//     instruction whose slot produces the count;
//   - write-after-read: a Release depends on every earlier reader of the
//     value it frees, not just the producer;
//   - lane order: each node depends on its lane predecessor, keeping
//     per-device dispatch serialized in plan order (this edge also makes the
//     critical-path computation account for device serialization).
//
// Lanes: computes take their placement pin (lane "" for unpinned ones);
// Sync and Release follow the lane of the value's producer so a device's
// hand-backs and frees stay ordered with the work that produced the value.
// Releases of values produced by earlier fragments (the release pass's
// "pre" releases) have no producer here and land on lane "".
func (s *Session) planGraph(batch []*PInstr) fragment {
	f := fragment{
		instrs: batch,
		deps:   make([][]int, len(batch)),
		laneOf: make([]string, len(batch)),
	}
	producer := map[*bat.BAT]int{}
	readers := map[*bat.BAT][]int{}
	slotProd := map[int]int{}
	laneIdx := map[string]int{}
	for i, in := range batch {
		depSet := map[int]bool{}
		addDep := func(j int) {
			if j >= 0 && j < i && !depSet[j] {
				depSet[j] = true
				f.deps[i] = append(f.deps[i], j)
			}
		}
		scan := func(in *PInstr) {
			for _, a := range in.Args {
				if a == nil {
					continue
				}
				a = s.canon(a)
				if p, ok := producer[a]; ok {
					addDep(p)
				}
				readers[a] = append(readers[a], i)
			}
		}
		scan(in)
		for _, m := range in.Sub {
			scan(m)
		}
		if in.NgrpRef >= 0 {
			if p, ok := slotProd[s.canonSlot(in.NgrpRef)]; ok {
				addDep(p)
			}
		}
		if in.Kind == OpRelease && len(in.Args) > 0 && in.Args[0] != nil {
			for _, r := range readers[s.canon(in.Args[0])] {
				addDep(r)
			}
		}
		if in.computes() {
			f.laneOf[i] = in.Device
		} else if len(in.Args) > 0 && in.Args[0] != nil {
			if p, ok := producer[s.canon(in.Args[0])]; ok {
				f.laneOf[i] = f.laneOf[p]
			}
		}
		l, ok := laneIdx[f.laneOf[i]]
		if ok {
			addDep(f.lanes[l][len(f.lanes[l])-1])
		} else {
			l = len(f.lanes)
			laneIdx[f.laneOf[i]] = l
			f.lanes = append(f.lanes, nil)
		}
		f.lanes[l] = append(f.lanes[l], i)
		reg := func(in *PInstr) {
			for _, r := range in.Rets {
				producer[s.canon(r)] = i
			}
		}
		reg(in)
		for _, m := range in.Sub {
			reg(m)
		}
		// slotProducer is builder state (nil on replay), so the graph keeps
		// its own slot→producer index from the batch itself.
		if in.NSlot >= 0 {
			slotProd[in.NSlot] = i
		}
	}
	return f
}

// laneSync is what the lanes of one fragment execution share: a completion
// channel per instruction (done-channel closes are the happens-before edges
// the executor relies on — notably for the group-count slot table) and the
// abort state.
type laneSync struct {
	done      []chan struct{}
	wg        sync.WaitGroup
	aborted   atomic.Bool
	panicOnce sync.Once
	panicVal  any
}

// runLanes runs the fragment with one goroutine per lane. A plan abort (or
// any panic) in one lane stops every lane: the failing lane records the
// panic, marks the execution aborted and closes its remaining channels so
// cross-lane waiters unblock, observe the abort and cascade; the first panic
// value is re-raised on the calling goroutine, where RunQuery/runTemplate
// recover it exactly as when the fragment runs inline.
func (s *Session) runLanes(f fragment, hyb *hybrid.Engine, sp []span) {
	ls := &laneSync{done: make([]chan struct{}, len(f.instrs))}
	for i := range ls.done {
		ls.done[i] = make(chan struct{})
	}
	ls.wg.Add(len(f.lanes))
	for _, idxs := range f.lanes {
		go s.runLane(f, idxs, hyb, sp, ls)
	}
	ls.wg.Wait()
	if ls.aborted.Load() {
		if ls.panicVal != nil {
			panic(ls.panicVal)
		}
		s.fail("exec", fmt.Errorf("parallel execution aborted"))
	}
}
