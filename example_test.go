package pmemolap_test

import (
	"fmt"

	pmemolap "repro"
)

// The characterization bench measures any workload point on the simulated
// machine — here the paper's peak-read configuration.
func ExampleBench_Measure() {
	bench, err := pmemolap.NewBench(pmemolap.DefaultConfig())
	if err != nil {
		panic(err)
	}
	gbs, err := bench.Measure(pmemolap.Point{
		Class: pmemolap.PMEM, Dir: pmemolap.Read, Pattern: pmemolap.SeqIndividual,
		AccessSize: 4096, Threads: 18, Policy: pmemolap.PinCores,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.0f GB/s\n", gbs)
	// Output: 40 GB/s
}

// The advisor turns the paper's 7 best practices into workload parameters.
func ExampleAdvise() {
	a := pmemolap.Advise(pmemolap.WorkloadDesc{
		Dir: pmemolap.Write, Pattern: pmemolap.SeqIndividual, FullControl: true,
	})
	fmt.Printf("threads/socket=%d accessSize=%d pinning=%s mode=%s\n",
		a.ThreadsPerSocket, a.AccessSize, a.Pinning, a.Mode)
	// Output: threads/socket=6 accessSize=4096 pinning=cores mode=devdax
}

// BestPractices lists Section 7's recommendations.
func ExampleBestPractices() {
	for _, p := range pmemolap.BestPractices()[:2] {
		fmt.Printf("%d. %s\n", p.Number, p.Text)
	}
	// Output:
	// 1. Read and write to PMEM in distinct memory regions.
	// 2. Scale up the number of threads when reading but limit the threads to 4-6 per socket when writing.
}

// PlanPlacement chooses a hybrid PMEM/DRAM layout under a DRAM budget.
func ExamplePlanPlacement() {
	plan, err := pmemolap.PlanPlacement([]pmemolap.TableDesc{
		{Name: "fact", Bytes: 76_800_000_000, Pattern: pmemolap.SeqIndividual, AccessShare: 0.3, ReadMostly: true},
		{Name: "hash-index", Bytes: 20 << 20, Pattern: pmemolap.Random, Dependent: true, AccessShare: 0.6, ReadMostly: true},
	}, 2<<30, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("fact:", plan.Tables["fact"].Device)
	fmt.Println("hash-index:", plan.Tables["hash-index"].Device)
	// Output:
	// fact: pmem
	// hash-index: dram
}

// GenerateSSB builds the Star Schema Benchmark database deterministically.
func ExampleGenerateSSB() {
	data, err := pmemolap.GenerateSSB(0.01)
	if err != nil {
		panic(err)
	}
	fmt.Println(data.Rows(), "fact rows,", len(data.Date), "days")
	// Output: 60000 fact rows, 2557 days
}
