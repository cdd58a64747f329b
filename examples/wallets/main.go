// Wallets: the Section VI-D scenario — non-mining cryptocurrency
// applications (wallets issuing transactions, a DApp talking to a smart
// contract) run on the defended machine for a (compressed) hour and stay
// far below the detection threshold, while a real miner on the same
// machine configuration does not.
package main

import (
	"fmt"
	"log"
	"time"

	"darkarts/internal/machine"
	"darkarts/internal/miner"
	"darkarts/internal/workload"
)

func main() {
	const compress = 60 // simulate 1 minute per "hour" and scale

	fmt.Println("non-mining cryptocurrency applications (1 compressed hour each):")
	for _, w := range workload.CryptoWalletApps() {
		sys, err := machine.New(machine.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		task := sys.SpawnApp(w)
		sys.Run(time.Hour / compress)
		rsxHour := float64(task.RSX().RSXCount()) * compress
		fmt.Printf("  %-12s RSX %6.2fB/hour  rate %5.3fB/min  alerts %d\n",
			w.Name, rsxHour/1e9, rsxHour/60/1e9, len(sys.Alerts()))
	}

	fmt.Println("\nfor contrast, an actual Monero mining service:")
	sys, err := machine.New(machine.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	tasks := miner.SpawnMiner(sys.Kernel(), miner.Monero, 0, 4, 1000)
	sys.Run(time.Hour / compress)
	rsxHour := float64(tasks[0].RSX().RSXCount()) * compress
	fmt.Printf("  %-12s RSX %6.2fB/hour  rate %5.3fB/min  alerts %d\n",
		"Monero", rsxHour/1e9, rsxHour/60/1e9, len(sys.Alerts()))
	fmt.Println("\nwallets and DApps transact; they do not hash — the RSX gap is ~2-3 orders of magnitude.")
}
