// Streaming: evaluate workers continuously as responses arrive, using the
// sharded concurrent evaluator and the pool manager. Responses for each
// batch are ingested from one goroutine per worker — the shape of a real
// labelling service, where submissions arrive over many connections at
// once — and intervals tighten with every batch; pool decisions fire as
// soon as the evidence clears a bar, not at the end of the job.
//
// Because the sharded evaluator's intervals are bit-identical at every
// shard count on the same responses, and every batch is fully
// ingested before its review, this prints the same decisions a serial
// deployment would.
//
// Run with: go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"sync"

	"crowdassess"
)

func main() {
	// Simulate a labelling job that arrives in batches of 40 tasks. Worker
	// 4 is an obvious spammer; worker 3 is borderline-bad.
	trueRates := []float64{0.08, 0.15, 0.12, 0.38, 0.50}
	src := crowdassess.NewSimSource(17)
	ds, _, err := crowdassess.BinarySim{
		Tasks:      400,
		Workers:    5,
		ErrorRates: trueRates,
	}.Generate(src)
	if err != nil {
		log.Fatal(err)
	}

	policy := crowdassess.DefaultPoolPolicy()
	// 4 task-stripe shards: concurrent Record calls only contend when
	// their tasks hash to the same stripe.
	p, err := crowdassess.NewShardedPool(5, 4, policy)
	if err != nil {
		log.Fatal(err)
	}

	const batch = 40
	for start := 0; start < ds.Tasks(); start += batch {
		end := start + batch
		// Each worker submits its batch from its own goroutine, as if over
		// its own connection.
		var wg sync.WaitGroup
		for w := 0; w < 5; w++ {
			if p.State(w) == crowdassess.Fired {
				continue // fired workers receive no more tasks
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for task := start; task < end; task++ {
					if err := p.Record(w, task, ds.Response(w, task)); err != nil {
						log.Fatal(err)
					}
				}
			}(w)
		}
		wg.Wait()
		decisions, err := p.Review()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("after %3d tasks:\n", end)
		for _, d := range decisions {
			if d.Action == crowdassess.NoChange {
				continue
			}
			fmt.Printf("  worker %d → %s (%s)\n", d.Worker, d.Action, d.Reason)
		}
		ests, err := p.Estimates()
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range ests {
			if e.Err == nil {
				fmt.Printf("  w%d [%0.3f, %0.3f]", e.Worker, e.Interval.Lo, e.Interval.Hi)
			}
		}
		fmt.Println()
	}

	fmt.Println("\nfinal states:")
	for w := 0; w < 5; w++ {
		fmt.Printf("  worker %d: %-10s (true error rate %.2f)\n", w, p.State(w), trueRates[w])
	}
}
