// Asyncengine: the §6 future-work direction made concrete — parallel
// candidate evaluation across the GPU pool.
//
// The same job set is trained twice with the same seed:
//
//  1. serialized, the paper's deployed single-device strategy: every
//     candidate takes the whole 24-GPU pool, one at a time;
//  2. by in-process workers: one fleet agent with 8 devices leases
//     candidates from the service's coordinator (GP-BUCB hallucination keeps
//     the concurrent picks diverse) and trains them one device each.
//
// On a pool that scales sublinearly (α = 0.35: one job on 24 GPUs runs only
// 24^0.35 ≈ 3× faster than on one), keeping 8 devices busy with 8 different
// candidates beats ganging all 24 on a single candidate — the workers'
// virtual-time makespan comes out ≥2× ahead, while the final best model per
// job is bit-identical to the serialized run. The program exits non-zero
// if any job's best model diverges.
//
// Run with: go run ./examples/asyncengine
package main

import (
	"context"
	"fmt"
	"log"

	"repro/easeml"
)

// The job set, submitted in a fixed order so both services assign the same
// ids (and therefore identical simulated training surfaces).
var programs = []struct{ name, program string }{
	{"galaxy-morphologies", "{input: {[Tensor[32, 32, 3]], []}, output: {[Tensor[3]], []}}"},
	{"retina-screening", "{input: {[Tensor[16, 16, 3]], []}, output: {[Tensor[2]], []}}"},
	{"sensor-forecast", "{input: {[Tensor[6]], [next]}, output: {[Tensor[2]], []}}"},
}

func submitAll(svc *easeml.Service) map[string]string {
	ids := make(map[string]string, len(programs))
	for _, p := range programs {
		job, err := svc.Submit(p.name, p.program)
		if err != nil {
			log.Fatal(err)
		}
		ids[p.name] = job.Name // service-assigned id
	}
	return ids
}

func main() {
	const seed, gpus, alpha, workers = 11, 24, 0.35, 8

	// --- Run 1: the deployed single-device strategy, strictly serialized.
	serial := easeml.NewService(easeml.ServiceConfig{GPUs: gpus, Seed: seed, Alpha: alpha})
	serialIDs := submitAll(serial)
	ran, err := serial.RunRounds(1 << 20) // run until every candidate is trained
	if err != nil {
		log.Fatal(err)
	}
	serialTime := serial.GPUTime()
	fmt.Printf("serialized: %d rounds, virtual time %.1f units (whole pool per candidate)\n",
		ran, serialTime)

	// --- Run 2: in-process workers, same seed, same jobs.
	eng := easeml.NewService(easeml.ServiceConfig{
		GPUs: gpus, Seed: seed, Alpha: alpha, Workers: workers,
	})
	engIDs := submitAll(eng)
	sum, err := eng.DrainEngine(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-process: %d rounds, virtual makespan %.1f units (%d workers, one device each)\n",
		sum.Rounds, sum.Makespan, workers)
	fmt.Printf("\nvirtual-time speedup: %.2fx (serialized %.1f / makespan %.1f)\n",
		sum.Speedup, sum.SingleDevice, sum.Makespan)
	fmt.Printf("wall clock of the in-process drain: %s, worker utilization %.0f%%\n",
		sum.Wall.Round(1e6), 100*sum.Utilization)

	// --- Same answers: the workers explore in a different order, but with a
	// fixed seed every candidate's measured accuracy is identical, so the
	// final best model per job must match the serialized run exactly.
	fmt.Println("\nbest model per job (serialized vs in-process workers):")
	for _, p := range programs {
		a, err := serial.Status(serialIDs[p.name])
		if err != nil {
			log.Fatal(err)
		}
		b, err := eng.Status(engIDs[p.name])
		if err != nil {
			log.Fatal(err)
		}
		if a.Best.Name != b.Best.Name || a.Best.Accuracy != b.Best.Accuracy {
			log.Fatalf("  %-20s ✗ DIVERGED: serialized %s (acc %.4f) vs in-process %s (acc %.4f)",
				p.name, a.Best.Name, a.Best.Accuracy, b.Best.Name, b.Best.Accuracy)
		}
		fmt.Printf("  %-20s %-38s acc %.4f   ✓ identical\n", p.name, a.Best.Name, a.Best.Accuracy)
	}
}
