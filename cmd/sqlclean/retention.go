// Offline columnar-retention plumbing: -compact turns a daemon's journal
// directory into compressed columnar blocks without running the daemon, and
// -scan reads blocks back out as TSV. Together they make the retention store
// a standalone archive format, not something only sqlcleand can touch.
package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"sqlclean"
	"sqlclean/internal/colstore"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/parsedlog"
)

// runCompact compacts every WAL segment in walDir (the active one included —
// offline, nothing is appending) into columnar blocks under retainDir.
func runCompact(walDir, retainDir string, maxBytes int64) {
	if walDir == "" || retainDir == "" {
		fatal(fmt.Errorf("-compact needs -data-dir (journal) and -retain-dir (blocks)"))
	}
	st, err := colstore.Open(colstore.Options{Dir: retainDir, MaxBytes: maxBytes})
	if err != nil {
		fatal(err)
	}
	// Offline compaction has no live engine to ask for verdicts: stamp each
	// template's engine fingerprint (so later daemon queries still match it)
	// and leave the verdict list empty.
	parser := parsedlog.NewParser()
	classify := func(stmt string) colstore.Classification {
		pe := parser.ParseEntry(logmodel.Entry{Statement: stmt})
		if pe.Info == nil {
			return colstore.Classification{}
		}
		return colstore.Classification{EngineFP: pe.Info.Fingerprint}
	}
	entries, err := st.CompactWALDir(walDir, true, classify)
	if err != nil {
		fatal(err)
	}
	blocks, bytes := st.Stats()
	logger.Info("compacted journal into columnar blocks",
		"wal_dir", walDir, "retain_dir", retainDir,
		"entries", entries, "blocks", blocks, "bytes", bytes)
	fmt.Printf("compacted %d entries into %d blocks (%d bytes) under %s\n",
		entries, blocks, bytes, retainDir)
}

// runScan streams block entries matching the time/template filter back to
// stdout as TSV, bit-identical to the journal frames they were compacted from.
func runScan(retainDir, from, to string, template uint64) {
	if retainDir == "" {
		fatal(fmt.Errorf("-scan needs -retain-dir"))
	}
	opts := colstore.ScanOptions{}
	var err error
	if opts.From, err = parseScanTime(from); err != nil {
		fatal(err)
	}
	if opts.To, err = parseScanTime(to); err != nil {
		fatal(err)
	}
	if template != 0 {
		opts.Templates = map[uint64]bool{template: true}
	}
	n := 0
	out := bufio.NewWriter(os.Stdout)
	var line []byte
	err = colstore.NewReader(retainDir).Scan(opts, func(_ uint64, e logmodel.Entry) error {
		n++
		line = logmodel.AppendTSV(line[:0], e)
		_, err := out.Write(line)
		return err
	})
	if err == nil {
		err = out.Flush()
	}
	if err != nil {
		fatal(err)
	}
	logger.Info("scanned retention blocks", "retain_dir", retainDir, "entries", n)
}

// parseScanTime accepts the same formats the daemon's ingest path does.
func parseScanTime(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	for _, f := range []string{time.RFC3339Nano, logmodel.TimeFormat} {
		if t, err := time.Parse(f, v); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("bad time %q (want RFC3339 or %s)", v, logmodel.TimeFormat)
}

// extraRuleSet assembles the optional §5.4 rule set behind -extra-rules:
// Karwin's Implicit Columns and leading-wildcard LIKE, with the matching
// solvers, over the SkyServer demo catalog.
func extraRuleSet() ([]sqlclean.Rule, []sqlclean.Solver) {
	cat := sqlclean.SkyServerCatalog()
	return sqlclean.ExtraAntipatternRules(cat), sqlclean.ExtraAntipatternSolvers(cat)
}
