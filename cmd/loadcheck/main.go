// Command loadcheck validates a LOAD_routelab.json load-harness
// emission (schema routelab-load/v1, written by cmd/routeload) and
// prints a human-readable summary. It exits non-zero on a missing,
// unparseable, or malformed file — how CI's load-smoke job fails on a
// broken emission.
//
// Gates, all off unless set:
//
//   - -max-error-rate: fails when the run's error rate exceeds the
//     threshold (percent). CI runs 0 — the fleet must serve a smoke-size
//     schedule with zero transport errors, bad statuses, or invalid
//     envelopes. Clean sheds (verified 429s) are NOT errors; a
//     saturation leg can shed heavily and still pass this gate.
//   - -max-shed-rate: fails when the shed rate exceeds the threshold
//     (percent). The plain load-smoke leg runs 0 — an unsaturated
//     fleet must never shed.
//   - -min-sheds: fails below a shed-count floor. The saturation leg
//     runs 1 — deliberately overfilled gates must actually shed, or
//     the overload protection silently stopped engaging.
//   - -max-p99: fails when whole-run p99 latency exceeds the duration.
//     CI uses a deliberately lax cross-machine tripwire (catastrophic
//     serialization or a build on the hot path), not a latency SLO:
//     one run's timings on a shared runner catch nothing finer.
//   - -min-throughput: fails below a req/s floor.
//   - -max-bucket-skew: histogram-shape gate. Fails when any occupied
//     time bucket's p99 exceeds skew × the whole-run p99 — the shape
//     regression where the run average looks fine but latency
//     collapses late (a leak, an eviction storm, a build landing on
//     the hot path mid-run). Needs a bucketed emission (-bucket on
//     routeload); 0 disables.
//
// Usage:
//
//	loadcheck [flags] [path]    (default LOAD_routelab.json)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"routelab/internal/service"
)

// gates carries every threshold so the evaluation is a pure function
// of (report, gates) — the part CI trusts, and the part the tests pin.
type gates struct {
	maxErrorRate  float64       // percent; always on
	maxShedRate   float64       // percent; always on
	minSheds      int64         // 0 = no gate
	maxP99        time.Duration // 0 = no gate
	minThroughput float64       // 0 = no gate
	maxBucketSkew float64       // ×whole-run p99; 0 = no gate
}

// evalGates returns one violation message per failed gate, empty when
// the report passes. Messages are complete sentences suitable for CI
// logs; the caller decides where they go.
func evalGates(rep *service.LoadReport, g gates) []string {
	var bad []string
	if rate := rep.ErrorRate * 100; rate > g.maxErrorRate {
		bad = append(bad, fmt.Sprintf("error rate %.2f%% EXCEEDS limit %.2f%% (%d/%d requests failed)",
			rate, g.maxErrorRate, rep.Errors, rep.Requests))
	}
	if rate := rep.ShedRate * 100; rate > g.maxShedRate {
		bad = append(bad, fmt.Sprintf("shed rate %.2f%% EXCEEDS limit %.2f%% (%d/%d requests shed)",
			rate, g.maxShedRate, rep.Sheds, rep.Requests))
	}
	if g.minSheds > 0 && rep.Sheds < g.minSheds {
		bad = append(bad, fmt.Sprintf("sheds %d BELOW floor %d — overload protection never engaged",
			rep.Sheds, g.minSheds))
	}
	if g.maxP99 > 0 && rep.Latency.P99NS > int64(g.maxP99) {
		bad = append(bad, fmt.Sprintf("p99 latency %v EXCEEDS tripwire %v",
			time.Duration(rep.Latency.P99NS).Round(time.Millisecond), g.maxP99))
	}
	if g.minThroughput > 0 && rep.Throughput < g.minThroughput {
		bad = append(bad, fmt.Sprintf("throughput %.1f req/s BELOW floor %.1f req/s",
			rep.Throughput, g.minThroughput))
	}
	if g.maxBucketSkew > 0 && rep.Latency.P99NS > 0 {
		limit := int64(g.maxBucketSkew * float64(rep.Latency.P99NS))
		for _, b := range rep.Buckets {
			if b.Requests == 0 {
				continue
			}
			if b.Latency.P99NS > limit {
				bad = append(bad, fmt.Sprintf("bucket [%v, %v) p99 %v EXCEEDS %.1f× whole-run p99 %v — latency shape regressed",
					time.Duration(b.StartNS), time.Duration(b.EndNS),
					time.Duration(b.Latency.P99NS).Round(time.Millisecond), g.maxBucketSkew,
					time.Duration(rep.Latency.P99NS).Round(time.Millisecond)))
			}
		}
	}
	return bad
}

// summarize prints the human-readable report: run identity, endpoint
// breakdown, and — when the emission is bucketed — the time-bucket
// histogram.
func summarize(out io.Writer, path string, rep *service.LoadReport) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(out, "%s: valid %s emission (%s %s/%s, GOMAXPROCS %d)\n",
		path, rep.Schema, rep.GoVersion, rep.GOOS, rep.GOARCH, rep.GOMAXPROCS)
	fmt.Fprintf(out, "target %s: %d requests / %d clients over %v, %d scenario(s) %v\n",
		rep.Target, rep.Requests, rep.Clients, time.Duration(rep.WallNS).Round(time.Millisecond),
		len(rep.Scenarios), rep.Scenarios)
	fmt.Fprintf(out, "throughput %.1f req/s, error rate %.2f%%, shed rate %.2f%%, cache hit rate %.1f%%\n",
		rep.Throughput, rep.ErrorRate*100, rep.ShedRate*100, rep.CacheHitRate*100)
	w := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "endpoint\trequests\terrors\tsheds\tp50 ms\tp90 ms\tp99 ms\tmax ms")
	for _, ep := range rep.Endpoints {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.1f\n",
			ep.Endpoint, ep.Requests, ep.Errors, ep.Sheds,
			ms(ep.Latency.P50NS), ms(ep.Latency.P90NS), ms(ep.Latency.P99NS), ms(ep.Latency.MaxNS))
	}
	w.Flush()
	if len(rep.Buckets) > 0 {
		fmt.Fprintf(out, "time buckets (%v wide):\n", time.Duration(rep.BucketNS))
		w = tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
		fmt.Fprintln(w, "start\trequests\terrors\tsheds\tp50 ms\tp99 ms\tmax ms")
		for _, b := range rep.Buckets {
			fmt.Fprintf(w, "%v\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\n",
				time.Duration(b.StartNS), b.Requests, b.Errors, b.Sheds,
				ms(b.Latency.P50NS), ms(b.Latency.P99NS), ms(b.Latency.MaxNS))
		}
		w.Flush()
	}
}

func main() {
	var g gates
	flag.Float64Var(&g.maxErrorRate, "max-error-rate", 0, "allowed error rate, in percent (clean sheds excluded)")
	flag.Float64Var(&g.maxShedRate, "max-shed-rate", 100, "allowed shed rate, in percent")
	flag.Int64Var(&g.minSheds, "min-sheds", 0, "shed-count floor (0 = no gate; saturation legs use >= 1)")
	flag.DurationVar(&g.maxP99, "max-p99", 0, "p99 latency tripwire (0 = no gate; keep it lax — cross-machine timings only catch blowups)")
	flag.Float64Var(&g.minThroughput, "min-throughput", 0, "throughput floor in req/s (0 = no gate)")
	flag.Float64Var(&g.maxBucketSkew, "max-bucket-skew", 0, "max per-bucket p99 as a multiple of whole-run p99 (0 = no gate; needs a bucketed emission)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: loadcheck [flags] [path to LOAD_routelab.json]")
		flag.PrintDefaults()
	}
	flag.Parse()
	path := "LOAD_routelab.json"
	switch flag.NArg() {
	case 0:
	case 1:
		path = flag.Arg(0)
	default:
		flag.Usage()
		os.Exit(2)
	}

	rep, err := service.ReadLoadReport(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadcheck:", err)
		os.Exit(1)
	}

	summarize(os.Stdout, path, &rep)
	if bad := evalGates(&rep, g); len(bad) > 0 {
		for _, msg := range bad {
			fmt.Fprintln(os.Stderr, "loadcheck:", msg)
		}
		os.Exit(1)
	}
	fmt.Printf("gates: ok (error rate <= %.2f%%, shed rate <= %.2f%%, shed floor %d, p99 tripwire %v, throughput floor %.1f req/s, bucket skew %.1f)\n",
		g.maxErrorRate, g.maxShedRate, g.minSheds, g.maxP99, g.minThroughput, g.maxBucketSkew)
}
