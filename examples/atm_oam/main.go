// ATM OAM example (Table 2 of the paper): the three operation modes of the
// OAM block of an ATM switch are scheduled on every architecture alternative
// considered in the paper (one or two 486/Pentium processors, one or two
// memory modules) and the worst-case delays are compared, reproducing the
// design-space exploration of section 6.
//
// Run with:
//
//	go run ./examples/atm_oam
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/service"
	"repro/internal/textio"
)

func main() {
	res, err := expr.RunTable2(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(expr.RenderTable2(res))

	// Spell out the conclusions the paper draws from Table 2.
	find := func(mode atm.Mode) expr.Table2Row {
		for _, row := range res.Rows {
			if row.Mode == mode {
				return row
			}
		}
		log.Fatalf("mode %d missing", mode)
		return expr.Table2Row{}
	}
	m1, m2, m3 := find(atm.Mode1), find(atm.Mode2), find(atm.Mode3)

	fmt.Println("observations (compare with the discussion of Table 2 in the paper):")
	fmt.Printf("  mode 2 gains nothing from a second processor: 1P=%d vs 2P=%d\n",
		m2.Delays["1P/1M 486"], m2.Delays["2P/1M 2x486"])
	fmt.Printf("  mode 3 gains from a second 486 (%d -> %d) but not from a second Pentium (%d -> %d)\n",
		m3.Delays["1P/1M 486"], m3.Delays["2P/1M 2x486"],
		m3.Delays["1P/1M Pentium"], m3.Delays["2P/1M 2xPentium"])
	fmt.Printf("  mode 1 always gains from a second processor (486: %d -> %d, Pentium: %d -> %d)\n",
		m1.Delays["1P/1M 486"], m1.Delays["2P/1M 2x486"],
		m1.Delays["1P/1M Pentium"], m1.Delays["2P/1M 2xPentium"])
	fmt.Printf("  a second memory module pays off only for two Pentiums in mode 1: %d -> %d\n",
		m1.Delays["2P/1M 2xPentium"], m1.Delays["2P/2M 2xPentium"])

	// The same study through the versioned document/service API: mode 1 on
	// the single-486 configuration is bundled into a v1 problem document
	// (what a cpgserve client would POST) and scheduled twice through a
	// service — the second run is answered from the content-hash memo.
	g, a, err := atm.Build(atm.Mode1, atm.StandardConfigs()[0], atm.MapAllFirst)
	if err != nil {
		log.Fatal(err)
	}
	doc := textio.EncodeProblem(g, a, core.Options{})
	req, err := service.FromDoc(doc)
	if err != nil {
		log.Fatal(err)
	}
	svc, err := service.New(service.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	first, err := svc.Schedule(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	second, err := svc.Schedule(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmode 1 on %s as a v1 problem document: δmax = %d ns, cache hit on re-run = %v\n",
		atm.StandardConfigs()[0].Label(), first.DeltaMax, second.CacheHit)
}
