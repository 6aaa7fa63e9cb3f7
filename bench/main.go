// Command bench is routelab's end-to-end benchmark: the ledger that
// BENCHMARK.json at the repository root names. It measures the batch
// reproduction (build + every experiment + render) and a routelabd
// fleet under load, end to end and layer by layer, from outside the
// program: through exported functions and the public hooks
// (obs.OnStage, obs.Snap, service.CacheHeader) only.
//
//	go run ./bench -workload W [-seed N] [-seconds S] [-trace 1]
//	go run ./bench -all    [-seed N]   every workload, untraced then traced
//	go run ./bench -repeat K [-seed N] every workload K times; do the sets agree?
//
// -quick shrinks every workload to a tiny world and 0.3-second phases;
// it exercises the code, not the machine. README.md in this directory
// is the metric glossary.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 20

type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	quick    bool
}

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

func (o options) result() *Result {
	return &Result{Schema: resultSchema, Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Quick: o.quick, Traced: o.traced}
}

// workloads are the benchmark's four workloads, in ledger order.
var workloads = []string{"batch_parallel", "batch_serial", "serve_hot", "serve_miss"}

// measure runs one workload in this process.
func measure(o options) (*Result, error) {
	env := startEnv()
	var r *Result
	var err error
	switch o.workload {
	case "batch_parallel", "batch_serial":
		workers := lanes()
		if o.workload == "batch_serial" {
			workers = 1
		}
		if o.traced {
			r, err = traceBatch(o, workers)
		} else {
			r, err = runBatch(o, workers)
		}
	case "serve_hot", "serve_miss":
		if o.traced {
			r, err = traceServe(o)
		} else {
			r, err = runServe(o)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloads)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	env.LoadavgEnd = loadavg()
	env.CalibMemEndMS = calibrateMem()
	r.Env = env
	r.seal()
	return r, nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run one workload: batch_parallel, batch_serial, serve_hot or serve_miss")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "seed of the experiments' random streams (batch), of the request schedule (serve) and of the probe samples")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 = the traced run: spans in memory, per-layer metrics out")
	flag.BoolVar(&o.quick, "quick", false, "tiny worlds, one pass, 0.3-second phases")
	all := flag.Bool("all", false, "run every workload, each in its own process, untraced then traced")
	repeat := flag.Int("repeat", 0, "run every workload this many times and report whether the sets agree")
	flag.Parse()
	o.traced = trace != 0
	if flag.NArg() != 0 || o.seconds < 1 || (o.workload == "") == (!*all && *repeat == 0) {
		fmt.Fprintln(os.Stderr, "usage: go run ./bench (-workload W | -all | -repeat K) [-seed N] [-seconds S] [-trace 1] [-quick]")
		os.Exit(2)
	}
	var err error
	switch {
	case *repeat > 0:
		err = runRepeat(o, *repeat, os.Stdout)
	case *all:
		err = runAll(o, os.Stdout)
	default:
		var r *Result
		if r, err = measure(o); err == nil {
			if err = r.write(); err == nil {
				r.print(os.Stdout)
				if !r.Correct {
					err = fmt.Errorf("%s: output checks failed", o.workload)
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// child runs one workload in a process of its own, so that its peak
// RSS is its own, and reads back the result file it wrote. The child's
// report goes to w.
func child(o options, w io.Writer) (*Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.traced {
		trace = "1"
	}
	args := []string{"-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = w, os.Stderr
	runErr := cmd.Run()
	r, err := readResult(o.result().fileName())
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, runErr)
		}
		return nil, err
	}
	return r, nil
}

// runAll runs every workload untraced and traced, then the checks and
// ratios that need two workloads' results.
func runAll(o options, w io.Writer) error {
	plain := make(map[string]*Result)
	traced := make(map[string]*Result)
	correct := true
	for _, name := range workloads {
		for _, tr := range []bool{false, true} {
			o.workload, o.traced = name, tr
			r, err := child(o, w)
			if err != nil {
				return err
			}
			correct = correct && r.Correct
			if tr {
				traced[name] = r
			} else {
				plain[name] = r
			}
		}
	}
	par, ser := plain["batch_parallel"], plain["batch_serial"]
	fmt.Fprintf(w, "# across workloads\n")
	if par.Digest != ser.Digest {
		correct = false
		fmt.Fprintf(w, "# check FAIL batch.parallel_equals_serial: %s != %s\n", par.Digest, ser.Digest)
	} else {
		fmt.Fprintf(w, "# check ok   batch.parallel_equals_serial %s\n", par.Digest)
	}
	for _, name := range exactCounts {
		if par.Counts[name] != ser.Counts[name] {
			correct = false
			fmt.Fprintf(w, "# check FAIL batch.counts_equal %s: parallel %d, serial %d\n", name, par.Counts[name], ser.Counts[name])
		}
	}
	fmt.Fprintf(w, "parallel.speedup %.4g ratio (batch_serial op_p50_ms %.1f / batch_parallel op_p50_ms %.1f)\n",
		ser.value("op_p50_ms")/par.value("op_p50_ms"), ser.value("op_p50_ms"), par.value("op_p50_ms"))
	tp, ts := traced["batch_parallel"], traced["batch_serial"]
	fmt.Fprintf(w, "parallel.rib_speedup %.4g ratio (batch_serial bgp.rib_s %.3f / batch_parallel bgp.rib_s %.3f)\n",
		ts.value("bgp.rib_s")/tp.value("bgp.rib_s"), ts.value("bgp.rib_s"), tp.value("bgp.rib_s"))
	if !correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// runRepeat runs the untraced benchmark sets times on the same code
// and judges, per end-to-end metric and workload, whether the sets
// agree within the bound BENCHMARK.json fixes for the metric. The
// counts that must repeat exactly must be identical between the sets.
func runRepeat(o options, sets int, w io.Writer) error {
	if sets < 2 {
		sets = 2
	}
	bj, err := readBenchmarkJSON()
	if err != nil {
		return err
	}
	results := make([]map[string]*Result, sets)
	for i := range results {
		results[i] = make(map[string]*Result)
		for _, name := range workloads {
			o.workload, o.traced = name, false
			r, err := child(o, io.Discard)
			if err != nil {
				return err
			}
			if !r.Correct {
				return fmt.Errorf("%s: output checks failed in set %d", name, i+1)
			}
			results[i][name] = r
		}
	}
	disagree := compareSets(w, bj, results)
	if disagree > 0 {
		return fmt.Errorf("%d disagreements between %d sets", disagree, sets)
	}
	return nil
}

// compareSets prints, per workload and end-to-end metric, every set's
// value and the spread between the lowest and the highest, and returns
// how many spreads exceed the metric's bound plus how many exact-repeat
// counts differ between sets.
func compareSets(w io.Writer, bj *benchmarkJSON, results []map[string]*Result) int {
	disagree := 0
	fmt.Fprintf(w, "%-15s %-12s %-5s %-28s %8s %6s\n", "workload", "metric", "unit", "sets", "spread", "bound")
	for _, name := range workloads {
		for _, m := range bj.EndToEnd {
			var vs []float64
			list := ""
			for i := range results {
				v := results[i][name].value(m.Name)
				vs = append(vs, v)
				list += fmt.Sprintf("%.5g ", v)
			}
			s := sorted(vs)
			spread := (s[len(s)-1] - s[0]) / s[0]
			verdict := "agree"
			if spread > m.Bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Fprintf(w, "%-15s %-12s %-5s %-28s %7.1f%% %5.0f%% %s\n", name, m.Name, m.Unit, list, spread*100, m.Bound*100, verdict)
		}
		for _, c := range exactCounts {
			for i := 1; i < len(results); i++ {
				if a, b := results[0][name].Counts[c], results[i][name].Counts[c]; a != b {
					disagree++
					fmt.Fprintf(w, "%-15s %s: set 1 %d, set %d %d DISAGREE\n", name, c, a, i+1, b)
				}
			}
		}
	}
	return disagree
}
