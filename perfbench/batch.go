package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"sqlclean"
	"sqlclean/internal/logmodel"
)

// batchScale is loggen's -scale for batch-clean: about 130k entries.
const batchScale = 16

// batchReads is how often set-up reads the input; set-up time is the median.
const batchReads = 5

// childBatchArg re-executes the benchmark as the batch-clean process under
// test, so its peak RSS is the clean's alone.
const childBatchArg = "batch-child"

// batchOut is what the child reports back on stdout.
type batchOut struct {
	Entries int       `json:"entries"`
	ReadS   []float64 `json:"read_s"`
	CleanS  []float64 `json:"clean_s"`
	Digests []string  `json:"digests"`
}

var batchConfig = sqlclean.Config{ClusterThreshold: 0.9}

// writeBatchInput generates the batch-clean log and writes it as TSV.
func writeBatchInput(e env) (string, error) {
	l := generate(batchScale, e.seed)
	path := filepath.Join(e.work, "batch.tsv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := logmodel.WriteTSV(f, l); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func readLog(path string) (sqlclean.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sqlclean.ReadLogTSV(f)
}

// serialClean is the Workers = 1 reference run; it also times the serial
// baseline the traced run compares against.
func serialClean(l sqlclean.Log) (*sqlclean.Result, time.Duration, error) {
	cfg := batchConfig
	cfg.Workers = 1
	start := time.Now()
	res, err := sqlclean.Clean(l, cfg)
	return res, time.Since(start), err
}

func runBatchClean(e env, rep *report) error {
	path, err := writeBatchInput(e)
	if err != nil {
		return err
	}
	if e.trace {
		return traceBatch(e, rep, path)
	}
	l, err := readLog(path)
	if err != nil {
		return err
	}
	ref, _, err := serialClean(l)
	if err != nil {
		return err
	}
	want := batchDigest(ref)
	ref, l = nil, nil
	runtime.GC()

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, childBatchArg, "-input", path, "-seconds", fmt.Sprint(e.seconds.Seconds()))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = dieWithParent()
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("batch child: %w", err)
	}
	var out batchOut
	if err := json.Unmarshal(stdout, &out); err != nil {
		return fmt.Errorf("batch child output: %w", err)
	}

	rep.provenance["input_entries"] = out.Entries
	rep.provenance["input_scale"] = batchScale
	rep.provenance["workers"] = runtime.GOMAXPROCS(0)
	rep.provenance["cluster_threshold"] = batchConfig.ClusterThreshold
	rep.ops(len(out.Digests), 0)
	for i, d := range out.Digests {
		if d != want {
			rep.fail("batch-clean: call %d's report and clean log differ from the Workers = 1 reference (digest %.12s, want %.12s)", i, d, want)
		}
	}
	cleanMS := make([]float64, len(out.CleanS))
	var total float64
	for i, s := range out.CleanS {
		cleanMS[i] = s * 1000
		total += s
	}
	rep.set("setup_s", median(out.ReadS), "s", len(out.ReadS))
	// Entries over the calls' summed time, not a per-call median: a call
	// runs only one or two GC cycles of its large heap, so single calls
	// differ by 20% depending on where the cycles fall.
	rep.set("entries_per_s", float64(out.Entries*len(out.CleanS))/total, "entries/s", len(out.CleanS))
	rep.set("ack_p50_ms", median(cleanMS), "ms", len(cleanMS))
	rep.set("peak_rss_mb", maxRSSMB(cmd.ProcessState), "MB", 1)
	rep.alias("entries_per_s", "clean_entries_per_s")
	rep.note("batch-clean: ack_* time whole sqlclean.Clean calls")
	return nil
}

// batchChild is the process under test for batch-clean: it reads the
// input batchReads times (set-up), calls sqlclean.Clean once untimed so the
// heap has grown to its working size, then calls it — each call with a
// fresh parser — until the measurement time is used up.
func batchChild(args []string) error {
	fs := flag.NewFlagSet(childBatchArg, flag.ContinueOnError)
	input := fs.String("input", "", "TSV log")
	seconds := fs.Float64("seconds", 10, "measurement time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var out batchOut
	var l sqlclean.Log
	for i := 0; i < batchReads; i++ {
		start := time.Now()
		var err error
		if l, err = readLog(*input); err != nil {
			return err
		}
		out.ReadS = append(out.ReadS, time.Since(start).Seconds())
	}
	out.Entries = len(l)
	if _, err := sqlclean.Clean(l, batchConfig); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	for len(out.CleanS) < 3 || time.Now().Before(deadline) {
		// Each call starts from a collected heap, as a fresh process would,
		// instead of from wherever the previous call's GC cycles left off.
		// The collection is not timed.
		runtime.GC()
		start := time.Now()
		res, err := sqlclean.Clean(l, batchConfig)
		if err != nil {
			return err
		}
		out.CleanS = append(out.CleanS, time.Since(start).Seconds())
		out.Digests = append(out.Digests, batchDigest(res))
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}
