// Quickstart: boot the defended machine, run normal desktop applications
// alongside a cryptojacking miner, and watch the OS layer flag the miner —
// the paper's Figure 3 pipeline end to end in ~30 lines of API use.
package main

import (
	"fmt"
	"log"
	"time"

	"darkarts/internal/kernel"
	"darkarts/internal/machine"
	"darkarts/internal/miner"
	"darkarts/internal/workload"
)

func main() {
	// 1. Build the machine: 4-core out-of-order CPU with RSX decode
	//    tagging + the modified scheduler (Table I defaults).
	sys, err := machine.New(machine.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// 2. A victim's ordinary desktop session.
	for _, app := range workload.TableIIApps()[:4] {
		sys.SpawnApp(app)
	}

	// 3. The cryptojacking payload: a 4-thread Monero miner using the
	//    common 30% throttle to hide.
	miner.SpawnMiner(sys.Kernel(), miner.Monero, 0.30, 4, 1000)

	// 4. Alerts arrive from the kernel when a process sustains more than
	//    2.5B RSX instructions/minute across a full monitoring window.
	sys.OnAlert(func(a kernel.Alert) {
		fmt.Println(a)
	})

	fmt.Println("simulating 3 minutes of machine time...")
	sys.Run(3 * time.Minute)

	if n := len(sys.Alerts()); n > 0 {
		fmt.Printf("defense raised %d alert(s): the throttled multi-threaded miner was caught.\n", n)
	} else {
		fmt.Println("no alerts (unexpected — the miner should be caught at 30% throttle)")
	}
}
