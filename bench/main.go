// Command bench is the repository's benchmark: six named workloads,
// end-to-end metrics an operator would see, per-layer metrics from a
// traced pass, and output checks on every operation. README.md in this
// directory says what each workload and metric is for and how a later
// performance claim must be measured.
//
// One workload, as the driver runs it (the last line of standard output
// is one JSON object):
//
//	bench --workload udp-clean --seed 1 --seconds 10 --trace 0
//
// Every workload, untraced then traced, each in a process of its own:
//
//	bench -seed 1 [-out FILE]
//
// Two sets of runs of the same code compared against the bounds:
//
//	bench -agree [-runs 10]
//
// Where one traced operation's time went:
//
//	bench -explain bench/out/trace-udp-clean.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// sizes fixes how big every workload's inputs are. Run length is set by
// -seconds; sizes never change with it, so per-operation numbers compare
// across run lengths and commits.
type sizes struct {
	Name string

	ChainN           int // routers in the GRE+IGP chain (udp-*, hub-coldstart)
	ShowActualSample int // devices sampled for device.show_actual_p50_s

	WaxmanN      int // devices per Waxman graph (plan-fabric)
	WaxmanGraphs int
	TorusSide    int // the torus has TorusSide² devices
	EquivN       int // the small Waxman graph the two finders are compared on (the exhaustive one is exponential: 8 takes 0.1s, 10 up to 40s)

	StoreK     int // resident intents (store-churn)
	StoreSpare int // customers with a port but no resident intent
	StoreBatch int // submits, then withdraws, per round

	RingN int // devices in the ring (chaos-repair)

	Setups       int // set-ups per run where one set-up serves the whole run
	SetupSamples int // set-ups a chain workload times per run, its reps included
	MinReps      int // chain reps / plan and store rounds run even if time is up
	MinEpisodes  int // 21 samples is the least a tail percentile is reported from
}

var (
	fullSizes = sizes{
		Name: "full", ChainN: 128, ShowActualSample: 16,
		WaxmanN: 64, WaxmanGraphs: 6, TorusSide: 64, EquivN: 8,
		StoreK: 10000, StoreSpare: 2000, StoreBatch: 100,
		RingN:  64,
		Setups: 3, SetupSamples: 10, MinReps: 2, MinEpisodes: 22,
	}
	// tinySizes keeps every code path and finishes in seconds under the
	// race detector (bench_test.go).
	tinySizes = sizes{
		Name: "tiny", ChainN: 8, ShowActualSample: 4,
		WaxmanN: 16, WaxmanGraphs: 2, TorusSide: 4, EquivN: 8,
		StoreK: 50, StoreSpare: 20, StoreBatch: 5,
		RingN:  8,
		Setups: 2, SetupSamples: 3, MinReps: 2, MinEpisodes: 5,
	}
)

// config is one run of one workload.
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Sizes   sizes
	OutDir  string // trace files are written here; "" writes none
	TmpDir  string // scratch journals live here; "" selects the system default
}

// workload is one named set of inputs and the layers it stresses.
type workload struct {
	Name string
	Why  string
	Run  func(config) *result
}

var workloads = []workload{
	{"udp-clean", "GRE+IGP chain n=128 over clean loopback UDP: channel batching/ARQ/acks and msg marshalling on the quiet path",
		func(c config) *result { return runChain("udp-clean", c) }},
	{"udp-lossy", "same job under seeded 5% loss, 2% reorder, up to 1ms jitter: the channel's recovery path, so an RTO/ack change cannot win udp-clean unseen",
		func(c config) *result { return runChain("udp-lossy", c) }},
	{"hub-coldstart", "same job on the zero-delay in-process hub, sequential NM: modules, device MA, msg JSON and kernel do all the work; counts repeat exactly",
		func(c config) *result { return runChain("hub-coldstart", c) }},
	{"plan-fabric", "planning only on six Waxman-64 graphs (no Prefer) and torus-4096 (Prefer): nm finder and compiler; the no-change control for channel work",
		runPlanFabric},
	{"store-churn", "10000 resident intents on a file journal with fsync: submit, withdraw and read passes side by side; surfaces the O(store) auto-snapshot",
		runStoreChurn},
	{"chaos-repair", "ring-64 under the daemon, one seeded on-path wire cut per episode, probed every 0.5ms: data-plane repair next to control-plane convergence",
		runChaosRepair},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run executes one workload and fills in what every workload reports the
// same way.
func run(w workload, cfg config) *result {
	res := w.Run(cfg)
	if !cfg.Trace {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			res.set("peak_rss_mb", float64(ru.Maxrss)/1024, 1) // Linux reports KiB
		}
	}
	res.complete()
	return res
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all: every workload, untraced then traced, one process each")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		scale   = flag.String("scale", "full", "input sizes: full or tiny")
		out     = flag.String("out", "", "all/agree: write the JSON document here (default bench/out/result-seed<seed>.json)")
		agree   = flag.Bool("agree", false, "run the untraced pass in two sets and compare them against the bounds")
		runs    = flag.Int("runs", 10, "agree: runs per set, each with another seed")
		explain = flag.String("explain", "", "print where the time in this trace file went")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	sz := fullSizes
	switch *scale {
	case "full":
	case "tiny":
		sz = tinySizes
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	switch {
	case *explain != "":
		if err := explainTrace(os.Stdout, *explain); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	case *agree:
		os.Exit(runAgree(driveOptions{Seed: *seed, Seconds: *seconds, Scale: *scale, Out: *out, Runs: *runs}))
	case *name == "all":
		os.Exit(runAll(driveOptions{Seed: *seed, Seconds: *seconds, Scale: *scale, Out: *out}))
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		cfg := config{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Sizes: sz, OutDir: outDir}
		res := run(w, cfg)
		fmt.Printf("# %s seed=%d seconds=%g trace=%v scale=%s gomaxprocs=%d\n",
			w.Name, cfg.Seed, cfg.Seconds, cfg.Trace, sz.Name, runtime.GOMAXPROCS(0))
		res.print(os.Stdout)
		fmt.Println(res.line())
	}
}
