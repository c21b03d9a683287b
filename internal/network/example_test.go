package network_test

import (
	"fmt"

	"nova/internal/network"
	"nova/internal/sim"
)

// A fabric is built from one engine per GPN (or one shared engine, as
// here). A message between PEs of different GPNs serializes through the
// source GPN's crossbar out-port, then the destination GPN's in-port,
// and pays the switch latency: 16 bytes at 30 B/cycle take one cycle per
// port, plus 120 cycles of switching. The traffic counters record
// exactly what crossed the crossbar.
func ExampleNewFabric() {
	eng := sim.NewEngine()
	fab := network.NewFabric([]*sim.Engine{eng, eng}, 1, network.FabricConfig{
		P2P:      network.DefaultP2PConfig(),
		Crossbar: network.DefaultCrossbarConfig(),
	})

	var at sim.Ticks
	fab.Send(0, 1, 16, sim.HandlerFunc(func() { at = eng.Now() }))
	if err := eng.RunUntilQuiet(0); err != nil {
		fmt.Println(err)
		return
	}
	fab.Finalize()

	st := fab.Stats()
	fmt.Printf("delivered at tick %d, inter_messages=%d inter_bytes=%d\n",
		at, st.InterMessages, st.InterBytes)
	// Output: delivered at tick 122, inter_messages=1 inter_bytes=16
}
