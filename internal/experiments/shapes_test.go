package experiments

import (
	"math"
	"testing"

	"sqlclean/internal/core"
	"sqlclean/internal/logmodel"
	"sqlclean/internal/overlap"
	"sqlclean/internal/parsedlog"
	"sqlclean/internal/skeleton"
	"sqlclean/internal/sqlast"
	"sqlclean/internal/workload"
)

// selectInfos returns the summaries of the log's SELECTs: the entries
// clusterLog clusters.
func selectInfos(l logmodel.Log) []*skeleton.Info {
	parsed, _ := parsedlog.Parse(l)
	var infos []*skeleton.Info
	for _, pe := range parsed {
		if pe.Class == sqlast.ClassSelect && pe.Info != nil {
			infos = append(infos, pe.Info)
		}
	}
	return infos
}

// TestFig3ClusterShape asserts the shape of Fig. 3 on three seeds: cleaning
// halves the number of query clusters and removing the antipatterns cuts it
// further, so clusters grow from the raw to the clean to the removal log;
// and on each log the cluster count barely moves with the threshold, because
// overlap distances are almost all 0 or 1 (§6.9). Clustering runs on
// overlap.ClusterInfos, which FuzzClusterMatchesOracle holds to the
// ClusterBoxes leader scan that the fig3 experiment times.
func TestFig3ClusterShape(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		cfg := workload.DefaultConfig().Scale(0.4)
		cfg.Seed = seed
		log, _ := workload.Generate(cfg)
		res, err := core.Run(log, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		type point struct {
			count int
			avg   float64
		}
		stats := map[string]map[float64]point{}
		for _, lg := range []struct {
			name string
			l    logmodel.Log
		}{{"raw", res.PreClean}, {"clean", res.Clean}, {"removal", res.Removal}} {
			infos := selectInfos(lg.l)
			stats[lg.name] = map[float64]point{}
			for _, th := range []float64{0.1, 0.5, 0.9} {
				st := overlap.Summarize(overlap.ClusterInfos(infos, th, 1, nil))
				stats[lg.name][th] = point{st.Count, st.AvgSize}
			}
			lo, hi := stats[lg.name][0.1].count, stats[lg.name][0.9].count
			if d := math.Abs(float64(lo-hi)) / float64(hi); d > 0.05 {
				t.Errorf("seed %d, %s log: %d clusters at 0.1, %d at 0.9 (%.1f%% apart, want at most 5%%)", seed, lg.name, lo, hi, 100*d)
			}
		}
		for _, th := range []float64{0.1, 0.5, 0.9} {
			raw, clean, removal := stats["raw"][th], stats["clean"][th], stats["removal"][th]
			t.Logf("seed %d, threshold %.1f: clusters raw %d, clean %d, removal %d", seed, th, raw.count, clean.count, removal.count)
			if float64(raw.count) < 1.8*float64(clean.count) {
				t.Errorf("seed %d, threshold %.1f: %d raw clusters, under 1.8 × %d clean", seed, th, raw.count, clean.count)
			}
			if float64(clean.count) < 1.15*float64(removal.count) {
				t.Errorf("seed %d, threshold %.1f: %d clean clusters, under 1.15 × %d removal", seed, th, clean.count, removal.count)
			}
			if !(raw.avg < clean.avg && clean.avg < removal.avg) {
				t.Errorf("seed %d, threshold %.1f: average cluster size raw %.2f, clean %.2f, removal %.2f; want increasing", seed, th, raw.avg, clean.avg, removal.avg)
			}
		}
	}
}
