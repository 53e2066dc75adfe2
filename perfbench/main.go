// Command perfbench is the repository benchmark. It runs one named
// workload of the simulator through the public entry points
// (mip6mcast.RunExperiment, StartChaos/RunChaosCell, checkpoint
// Capture/Restore), checks every simulated output, and prints the result
// as one JSON line:
//
//	perfbench -workload grid-flood -seed 3 -seconds 20 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones (cell time, frame
// throughput, set-up time, allocations, peak memory, share of cells
// correct), with times in reference seconds (calib.go). With -trace 1 the run alternates plain and traced cells and
// reports the per-layer ledger instead. Run it through run.sh, which
// builds the binary from source first; README.md explains the workloads,
// the metrics and what each layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", defaultSeed, "workload seed; every input of the run derives from it")
		seconds  = flag.Int("seconds", 10, "how long the timed phase runs, in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		root     = flag.String("root", ".", "repository root (for the source digest and -write-reference)")
		commit   = flag.String("commit", "unknown", "commit the sources were checked out from, stamped on the result")
		writeRef = flag.Bool("write-reference", false, "run every cell of the default seed once and write its rows to perfbench/reference")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	// One process runs one workload on every core the process may use;
	// the workloads themselves pin experiment Workers to 1.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *writeRef {
		return writeReference(w, *root)
	}

	ref, err := loadReference(w.name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	chk := newChecker(ref, *seed == defaultSeed)
	host := fingerprint(*root, *commit)
	budget := time.Duration(*seconds) * time.Second

	var metrics map[string]metric
	var extra map[string]any
	if *trace == 1 {
		metrics = tracedRun(w, *seed, budget, chk)
	} else {
		metrics, extra = timedRun(w, *seed, budget, chk)
	}

	for _, msg := range chk.messages {
		fmt.Fprintln(os.Stderr, "perfbench: check:", msg)
	}
	summary := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": host, "attempted": chk.attempted, "failed": chk.failed,
		"failed_frac": float64(chk.failed) / float64(max(chk.attempted, 1)),
		"reference":   chk.strict,
	}
	for k, v := range extra {
		summary[k] = v
	}
	for k, m := range metrics {
		summary[k] = m.Value
	}
	if err := printJSON(summary); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{chk.failed == 0 && chk.attempted > 0, chk.attempted, chk.failed, metrics}
	if err := printJSON(result); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// writeReference runs every unit of the default seed's pool once and
// stores the cells' rows as the reference the output check compares
// against. Rows must repeat exactly, so each unit runs twice and any
// difference aborts the write.
func writeReference(w *workload, root string) int {
	rows := map[string]map[string]float64{}
	for k := 0; k < w.pool; k++ {
		first := w.unit(unitSeed(defaultSeed, k), nil)
		again := w.unit(unitSeed(defaultSeed, k), nil)
		if len(first.cells) != len(again.cells) {
			fmt.Fprintf(os.Stderr, "perfbench: unit %d ran %d cells, then %d\n", k, len(first.cells), len(again.cells))
			return 1
		}
		for i, c := range first.cells {
			if c.err != "" {
				fmt.Fprintf(os.Stderr, "perfbench: cell %s failed: %s\n", c.key, c.err)
				return 1
			}
			if d := diffRows(c.rows, again.cells[i].rows); d != "" {
				fmt.Fprintf(os.Stderr, "perfbench: cell %s is not deterministic: %s\n", c.key, d)
				return 1
			}
			rows[c.key] = c.rows
		}
	}
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	path := filepath.Join(root, "perfbench", "reference", w.name+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s: %d cells\n", path, len(rows))
	return 0
}
