package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"net/http"
	"reflect"
	"sort"

	"sqlclean"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/stream"
)

// batchDigest fingerprints a Clean result: the Table 5 report — minus its
// timings and the clustering work counters, which legitimately vary with
// the worker count — plus the clean and removal logs.
//
// A CRC over the raw fields, not a cryptographic hash over formatted TSV:
// the digest runs after every timed call and must stay small next to it.
func batchDigest(res *sqlclean.Result) string {
	r := res.Report
	var zero sqlclean.Report
	r.Duration, r.Stages, r.ClusterWork = 0, zero.Stages, zero.ClusterWork
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	fmt.Fprintf(h, "%+v\n", r)
	var buf []byte
	for _, l := range []sqlclean.Log{res.Clean, res.Removal} {
		for _, e := range l {
			buf = binary.AppendVarint(buf[:0], e.Time.UnixNano())
			buf = binary.AppendVarint(buf, e.Rows)
			for _, s := range []string{e.User, e.Session, e.Statement} {
				buf = binary.AppendUvarint(buf, uint64(len(s)))
				buf = append(buf, s...)
			}
			h.Write(buf)
		}
		h.Write([]byte("\x00log end\x00"))
	}
	return fmt.Sprintf("%016x/%d/%d", h.Sum64(), len(res.Clean), len(res.Removal))
}

// templateRow is one row of the template table both sides must agree on.
type templateRow struct {
	Fingerprint    uint64 `json:"fingerprint"`
	Skeleton       string `json:"skeleton"`
	Frequency      int    `json:"frequency"`
	UserPopularity int    `json:"user_popularity"`
}

// streamView is what the ingest check compares: the engine's counters
// (minus the open-session high-water mark, which depends on how the
// daemon's shards interleave) and the full template table.
type streamView struct {
	In              int            `json:"in"`
	Selects         int            `json:"selects"`
	Duplicates      int            `json:"duplicates"`
	Out             int            `json:"out"`
	Antipatterns    map[string]int `json:"antipatterns"`
	SolvedQueries   int            `json:"solved_queries"`
	SessionsEmitted int            `json:"sessions_emitted"`
	Templates       []templateRow  `json:"-"`
}

// reportDoc is the part of GET /report the check reads.
type reportDoc struct {
	Stream    streamView    `json:"stream"`
	Templates []templateRow `json:"templates"`
}

// allTemplates asks /report for every template, not just the top 20.
const allTemplates = "/report?top=1000000"

func fetchView(cl *http.Client, base string) (streamView, error) {
	var doc reportDoc
	if err := getJSON(cl, base+allTemplates, &doc); err != nil {
		return streamView{}, err
	}
	v := doc.Stream
	v.Templates = doc.Templates
	return v, nil
}

// reference is the in-process stream.Sharded the daemon must agree with,
// fed the same entries single-threaded in log order.
type reference struct {
	eng      *stream.Sharded
	rejected int
}

// newReference decodes the TSV bodies the daemon received exactly as the
// daemon decodes them and feeds the entries in log (event-time) order.
func newReference(bodies [][]byte) (*reference, error) {
	var entries []logmodel.Entry
	for _, body := range bodies {
		err := logmodel.ScanTSV(bytes.NewReader(body), func(e logmodel.Entry) error {
			entries = append(entries, e)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Time.Before(entries[j].Time) })
	r := &reference{eng: stream.NewSharded(stream.ShardedConfig{Shards: numShards})}
	for _, e := range entries {
		if _, err := r.eng.AddShard(r.eng.ShardFor(e.User), e); err != nil {
			r.rejected++
		}
	}
	return r, nil
}

func (r *reference) view() streamView {
	st := r.eng.Stats()
	v := streamView{
		In: st.In, Selects: st.Selects, Duplicates: st.Duplicates, Out: st.Out,
		SolvedQueries: st.SolvedQueries, SessionsEmitted: st.SessionsEmitted,
	}
	for k, n := range st.Antipatterns {
		if v.Antipatterns == nil {
			v.Antipatterns = map[string]int{}
		}
		v.Antipatterns[string(k)] = n
	}
	for _, t := range r.eng.Templates() {
		v.Templates = append(v.Templates, templateRow{t.Fingerprint, t.Skeleton, t.Frequency, t.UserPopularity})
	}
	return v
}

// diffViews returns "" when the daemon's view equals the reference's, and
// otherwise a description of the first difference.
func diffViews(got, want streamView) string {
	gt, wt := got.Templates, want.Templates
	got.Templates, want.Templates = nil, nil
	if len(got.Antipatterns) == 0 {
		got.Antipatterns = nil
	}
	if len(want.Antipatterns) == 0 {
		want.Antipatterns = nil
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("stream stats: daemon %+v, reference %+v", got, want)
	}
	if len(gt) != len(wt) {
		return fmt.Sprintf("template table: daemon has %d templates, reference %d", len(gt), len(wt))
	}
	key := func(ts []templateRow) func(i, j int) bool {
		return func(i, j int) bool {
			if ts[i].Frequency != ts[j].Frequency {
				return ts[i].Frequency > ts[j].Frequency
			}
			return ts[i].Fingerprint < ts[j].Fingerprint
		}
	}
	sort.SliceStable(gt, key(gt))
	sort.SliceStable(wt, key(wt))
	for i := range gt {
		if gt[i] != wt[i] {
			return fmt.Sprintf("template %d: daemon %+v, reference %+v", i, gt[i], wt[i])
		}
	}
	return ""
}
