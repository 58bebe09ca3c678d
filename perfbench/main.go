// Command perfbench is the repository benchmark: it generates its inputs from
// a seed, runs one workload against the real system — sqlclean.Clean in a
// child process, or the sqlcleand binary driven over HTTP — checks the
// outputs against an in-process reference, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer ledger) with the run's
// provenance. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds both binaries from the checkout:
//
//	bash perfbench/run.sh --workload ingest-live --seed 3 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the event clock.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// env is what every workload needs from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	daemon  string // sqlcleand binary
	work    string // this run's scratch directory, removed at exit
	root    string // repository checkout
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's outcome. Metrics and their sample counts are
// printed as human lines before the JSON result; notes carry the
// workload-specific names of metrics, ungated figures and any check
// failures.
type report struct {
	res        result
	samples    map[string]int
	provenance map[string]any
	lines      []string
}

func newReport() *report {
	return &report{
		res:        result{Correct: true, Metrics: map[string]metric{}},
		samples:    map[string]int{},
		provenance: map[string]any{},
	}
}

func (r *report) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s has no value (%d samples)", name, n)
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// alias prints a metric again under the name the workload's own docs use
// (clean_entries_per_s on batch-clean, ingest_entries_per_s on ingest).
func (r *report) alias(name, as string) {
	m := r.res.Metrics[name]
	r.note("metric %-28s %14.4f %-10s n=%d (reported as %s)", as, m.Value, m.Unit, r.samples[name], name)
}

func (r *report) note(format string, a ...any) { r.lines = append(r.lines, fmt.Sprintf(format, a...)) }

// fail records an output-check failure: the run is then incorrect and the
// process exits non-zero.
func (r *report) fail(format string, a ...any) {
	r.res.Correct = false
	r.res.Failed++
	r.note("CHECK FAILED: "+format, a...)
}

// ops counts attempted and failed operations.
func (r *report) ops(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

var workloads = map[string]func(env, *report) error{
	"batch-clean":     runBatchClean,
	"ingest-live":     runIngestLive,
	"ingest-backfill": runIngestBackfill,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childBatchArg {
		if err := batchChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	var (
		workload = flag.String("workload", "", "batch-clean | ingest-live | ingest-backfill")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "measurement time per run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
		daemon   = flag.String("daemon", "", "sqlcleand binary built from the checkout under test")
		work     = flag.String("work", "", "scratch directory (a per-run subdirectory is created and removed)")
		root     = flag.String("root", ".", "repository checkout, for provenance")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *daemon == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -daemon BIN -work DIR --workload batch-clean|ingest-live|ingest-backfill --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	e := env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		daemon:  *daemon,
		work:    dir,
		root:    *root,
	}
	rep := newReport()
	rep.provenance = provenance(e, *workload)
	runErr := run(e, rep)
	os.RemoveAll(dir)
	if runErr != nil {
		// A run that could not measure prints no result.
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.res.Correct {
		os.Exit(1)
	}
}

func (r *report) print(w io.Writer) error {
	prov, err := json.Marshal(r.provenance)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", prov)
	names := make([]string, 0, len(r.res.Metrics))
	for name := range r.res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.res.Metrics[name]
		fmt.Fprintf(w, "metric %-34s %14.4f %-10s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", r.res.Attempted, r.res.Failed, r.res.Correct)
	out, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// provenance is what makes two results comparable: the machine, the
// toolchain, the source and the knobs every workload shares. Workloads add
// their own (input sizes, rates, request sizes) before the run ends.
func provenance(e env, workload string) map[string]any {
	return map[string]any{
		"workload":    workload,
		"seed":        e.seed,
		"seconds":     e.seconds.Seconds(),
		"trace":       e.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"git_commit":  gitCommit(e.root),
		"source_hash": sourceHash(e.root),
		"clock_step":  clockStep.String(),
		"clock_t0":    clockT0.Format(time.RFC3339),
		"session_gap": sessionGap.String(),
		"shards":      numShards,
		"queue_size":  queueSize,
	}
}

// gitCommit is the checkout's commit, or "none" when the checkout is not a
// git repository (source_hash identifies the source either way). git may
// not look above the checkout for a repository.
func gitCommit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "-C", abs, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file of the checkout, so a
// result names the exact code it measured even without git.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
