// Portability: the paper's core demonstration (§3.1, claim 2) — one
// hardware-oblivious operator set running unchanged on dissimilar devices.
// This example executes the *identical* operator calls on the CPU driver
// and on the simulated discrete GPU, verifies the results agree bit for
// bit, and shows what differs underneath: launch geometry, memory access
// pattern, radix width, transfer traffic.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/core/kernels"
	"repro/internal/mem"
)

func main() {
	const n = 1 << 20
	r := rand.New(rand.NewSource(7))
	vals := mem.AllocI32(n)
	for i := range vals {
		vals[i] = r.Int31n(1 << 16)
	}

	devices := []*cl.Device{
		cl.NewCPUDevice(0),
		cl.NewGPUDevice(256 << 20),
	}

	var reference []int32
	for _, dev := range devices {
		groups, local := cl.DefaultLaunch(dev)
		fmt.Printf("%s\n", dev.Name)
		fmt.Printf("  class=%s  n_c=%d  n_a=%d  → launch geometry %d×%d (§4.2 rule), one group per %d elements of work\n",
			dev.Const.Class, dev.Const.Cores, dev.Const.UnitsPerCore, groups, local, dev.Const.Grain)
		fmt.Printf("  access pattern: ")
		if dev.Const.Class == cl.ClassGPU {
			fmt.Printf("strided (coalescing)  radix=%d bits\n", kernels.RadixBits(dev))
		} else {
			fmt.Printf("contiguous chunks (prefetching)  radix=%d bits\n", kernels.RadixBits(dev))
		}

		// The very same operator calls on every device.
		engine := core.New(dev)
		col := bat.NewI32("values", vals)
		sel, err := engine.Select(col, nil, 1000, 9999, true, true)
		check(err)
		prj, err := engine.Project(sel, col)
		check(err)
		sorted, _, err := engine.Sort(prj)
		check(err)
		check(engine.Sync(sorted))

		out := sorted.I32s()
		fmt.Printf("  selected %d rows, sorted; first=%d last=%d\n",
			sorted.Len(), out[0], out[len(out)-1])
		if dev.Discrete {
			transfers, bytes := dev.Transfers()
			fmt.Printf("  device traffic: %d transfers, %d KiB over the link; device time %v\n",
				transfers, bytes>>10, dev.TimelineNow().Round(1000))
		}
		fmt.Println()

		if reference == nil {
			reference = append([]int32(nil), out...)
			continue
		}
		for i := range out {
			if out[i] != reference[i] {
				log.Fatalf("devices disagree at row %d: %d vs %d", i, out[i], reference[i])
			}
		}
		fmt.Println("✓ identical results from identical operator code on both devices")
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
