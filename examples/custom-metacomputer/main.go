// Custom metacomputer: build your own heterogeneous testbed with the
// public API — hosts, shared segments, a gateway — attach ambient load,
// and let an AppLeS agent schedule onto it. Shows the library is not tied
// to the paper's Figure 2 configuration.
//
//	go run ./examples/custom-metacomputer
package main

import (
	"fmt"
	"log"

	"apples"
)

func main() {
	eng := apples.NewEngine()
	rng := apples.NewRand(99)
	tp := apples.NewTopology(eng)

	// A small lab: two fast shared servers, four slow desktops, and a
	// dedicated number-cruncher, on two segments behind a router.
	tp.AddHost(apples.HostSpec{
		Name: "server1", Arch: "server", Site: "lab", Speed: 80, MemoryMB: 512,
		Load: apples.NewAR1Load(rng.Fork(), 5, 0.8, 0.9, 0.3),
	})
	tp.AddHost(apples.HostSpec{
		Name: "server2", Arch: "server", Site: "lab", Speed: 80, MemoryMB: 512,
		Load: apples.NewOnOffLoad(rng.Fork(), 60, 120, 2),
	})
	for i := 1; i <= 4; i++ {
		tp.AddHost(apples.HostSpec{
			Name: fmt.Sprintf("desk%d", i), Arch: "desktop", Site: "lab",
			Speed: 15, MemoryMB: 128,
			Load: apples.NewSpikeLoad(rng.Fork(), 120, 30, 0.2, 2),
		})
	}
	tp.AddHost(apples.HostSpec{
		Name: "cruncher", Arch: "mini", Site: "machine-room",
		Speed: 120, MemoryMB: 96, Dedicated: true,
	})

	backbone := tp.AddLink(apples.LinkSpec{Name: "backbone", Latency: 0.0005, Bandwidth: 12})
	deskNet := tp.AddLink(apples.LinkSpec{
		Name: "desk-eth", Latency: 0.001, Bandwidth: 1.25,
		CrossTraffic: apples.NewAR1Load(rng.Fork(), 10, 0.4, 0.8, 0.2),
	})
	tp.AddRouter("gw")
	tp.Attach("server1", backbone)
	tp.Attach("server2", backbone)
	tp.Attach("cruncher", backbone)
	tp.Attach("gw", backbone)
	tp.Attach("gw", deskNet)
	for i := 1; i <= 4; i++ {
		tp.Attach(fmt.Sprintf("desk%d", i), deskNet)
	}
	tp.Finalize()

	// Sense, then schedule a 1000x1000 Jacobi with 80 sweeps.
	nws := apples.NewNWS(eng, 10)
	nws.WatchTopology(tp)
	if err := eng.RunUntil(600); err != nil {
		log.Fatal(err)
	}

	// Seven hosts is comfortably inside the exhaustive selector's 2^n
	// range; ask for the greedy heuristic anyway to show the selector is
	// pluggable — on hundreds of hosts this is what keeps the round
	// interactive (beam trades more search for tighter gaps).
	const n, iters = 1000, 80
	agent, err := apples.NewAgent(tp, apples.JacobiTemplate(n, iters),
		&apples.UserSpec{Decomposition: "strip"}, apples.NWSInformation(nws, tp),
		apples.WithSelector(apples.SelectorSpec{Kind: apples.SelectorGreedy}))
	if err != nil {
		log.Fatal(err)
	}
	sched, measured, err := agent.Run(n, apples.JacobiActuator(tp, apples.JacobiConfig{Iterations: iters}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("AppLeS on a custom metacomputer:")
	for _, a := range sched.Placement.Assignments {
		if a.Points > 0 {
			fmt.Printf("  %-9s %6.2f%%\n", a.Host, 100*sched.Placement.Fraction(a.Host))
		}
	}
	fmt.Printf("predicted %.2f s, measured %.2f s\n", sched.PredictedTotal, measured)
	// Note the cruncher: fastest machine, but only 96 MB — the agent caps
	// its strip by memory instead of spilling.
	needMB := 0.0
	for _, a := range sched.Placement.Assignments {
		if a.Host == "cruncher" {
			needMB = float64(a.Points) * 16 / 1e6
		}
	}
	fmt.Printf("cruncher strip needs %.1f MB of its 96 MB\n", needMB)
}
