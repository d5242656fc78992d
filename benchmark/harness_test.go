package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// streamBytes renders everything a seed decides for a workload: the
// statement pool, each session's order, and (open loop) the arrival
// schedule.
func streamBytes(spec workloadSpec, seed uint64) []byte {
	var b bytes.Buffer
	pool := spec.pool(newRNG(seed, 1))
	for _, s := range pool {
		fmt.Fprintln(&b, s.text)
	}
	if spec.open {
		for _, a := range openSchedule(newRNG(seed, 2), pool, mixedOpenRate, 3e9) {
			fmt.Fprintln(&b, a.dueNs, a.stmt)
		}
	} else {
		fmt.Fprintln(&b, closedOrders(seed, len(pool), 2))
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, spec := range workloads {
		a, b, c := streamBytes(spec, 7), streamBytes(spec, 7), streamBytes(spec, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", spec.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", spec.name)
		}
	}
}

func TestOpenScheduleShape(t *testing.T) {
	spec, _ := findWorkload("mixed-open")
	pool := spec.pool(newRNG(3, 1))
	distinct := make(map[string]bool)
	for _, s := range pool {
		distinct[s.text] = true
	}
	if len(distinct) <= 500 {
		t.Errorf("mixed-open has %d distinct texts, want > 500 (above the 64-entry plan cache)", len(distinct))
	}
	sched := openSchedule(newRNG(3, 2), pool, mixedOpenRate, 5e9)
	if len(sched) != mixedOpenRate*5 {
		t.Fatalf("%d arrivals, want %d", len(sched), mixedOpenRate*5)
	}
	byClass := make(map[string]int)
	for i, a := range sched {
		if i > 0 && a.dueNs < sched[i-1].dueNs {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		if a.dueNs < 0 || a.dueNs >= 5e9 {
			t.Fatalf("arrival %d due at %d ns, outside the window", i, a.dueNs)
		}
		byClass[pool[a.stmt].class]++
	}
	want := map[string]int{"point": 1960, "window": 560, "hist": 224, "bulk": 56}
	if !reflect.DeepEqual(byClass, want) {
		t.Errorf("class counts %v, want %v", byClass, want)
	}
}

func TestPercentile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Ten samples beyond p95 takes 200 samples; 199 leave nine.
	if got := samplesBeyond(200, 0.95); got != 10 {
		t.Errorf("samplesBeyond(200, 0.95) = %d, want 10", got)
	}
	if got := samplesBeyond(199, 0.95); got != 9 {
		t.Errorf("samplesBeyond(199, 0.95) = %d, want 9", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

const cannedBefore = `# TYPE cache_hits counter
cache_hits 10
# TYPE query_count counter
query_count 4
# TYPE sched_queue_hiwater gauge
sched_queue_hiwater 1
# TYPE phase_region_exec_ns histogram
phase_region_exec_ns_bucket{le="1024"} 3
phase_region_exec_ns_bucket{le="+Inf"} 4
phase_region_exec_ns_sum 4000
phase_region_exec_ns_count 4
# TYPE phase_region_exec_ns_q gauge
phase_region_exec_ns_q{quantile="0.5"} 900
`

const cannedAfter = `# TYPE cache_hits counter
cache_hits 25
# TYPE cache_misses counter
cache_misses 2
# TYPE query_count counter
query_count 10
# TYPE sched_queue_hiwater gauge
sched_queue_hiwater 2
# TYPE phase_region_exec_ns histogram
phase_region_exec_ns_bucket{le="1024"} 5
phase_region_exec_ns_bucket{le="+Inf"} 10
phase_region_exec_ns_sum 16000
phase_region_exec_ns_count 10
# TYPE phase_region_exec_ns_q gauge
phase_region_exec_ns_q{quantile="0.5"} 1500
`

func TestParseExpositionDeltas(t *testing.T) {
	before, err := parseExposition([]byte(cannedBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition([]byte(cannedAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	for name, want := range map[string]float64{
		"cache_hits":                             15,
		"cache_misses":                           2, // absent before: counts from zero
		"query_count":                            6,
		"phase_region_exec_ns_sum":               12000,
		`phase_region_exec_ns_bucket{le="+Inf"}`: 6,
		`phase_region_exec_ns_q{quantile="0.5"}`: 600,
		"phase_region_exec_ns_count":             6,
		"sched_queue_hiwater":                    1,
	} {
		if d[name] != want {
			t.Errorf("delta[%s] = %v, want %v", name, d[name], want)
		}
	}
	if us := maxPerQueryUs([]series{d, {"phase_region_exec_ns_sum": 30000, "query_count": 6}}, "phase_region_exec_ns_sum", "query_count"); us != 5 {
		t.Errorf("maxPerQueryUs = %v, want 5", us)
	}
	for _, bad := range []string{
		"query_count 4\n", // no TYPE
		"# TYPE query_count counter\nquery_count x\n", // bad value
		"# TYPE a counter\na 1\na 2\n",                // duplicate series
	} {
		if _, err := parseExposition([]byte(bad)); err == nil {
			t.Errorf("parseExposition accepted %q", bad)
		}
	}
}

func TestStatFields(t *testing.T) {
	comm, f, err := statFields("1234 (pdc server) S 77 1234 1234 0 -1 4194560 100 0 0 0 41 17 0 0 20 0 9 0 100 1000 50")
	if err != nil {
		t.Fatal(err)
	}
	if comm != "pdc server" || f[1] != "77" || f[11] != "41" || f[12] != "17" {
		t.Errorf("comm %q ppid %s utime %s stime %s", comm, f[1], f[11], f[12])
	}
	if _, _, err := statFields("garbage"); err == nil {
		t.Error("statFields accepted garbage")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "stmt", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "parse", StartNs: 0, EndNs: 10},
		{ID: 3, Parent: 1, Name: "session.call", StartNs: 10, EndNs: 90},
	}
	selfTimes(spans)
	if spans[0].SelfNs != 10 || spans[1].SelfNs != 10 || spans[2].SelfNs != 80 {
		t.Errorf("self times %d %d %d, want 10 10 80", spans[0].SelfNs, spans[1].SelfNs, spans[2].SelfNs)
	}
}

// TestOracleAgainstGroundTruth holds the harness's plain-loop oracle to
// the repo's own brute-force GroundTruth on every workload's statements.
func TestOracleAgainstGroundTruth(t *testing.T) {
	const n = 1 << 13
	cols := generateColumns(n, 5)
	src, err := importSource(cols)
	if err != nil {
		t.Fatal(err)
	}
	defer src.close()
	checked := 0
	for _, spec := range workloads {
		pool := spec.pool(newRNG(5, 1))
		if len(pool) > 60 {
			pool = append(pool[:30], pool[len(pool)-30:]...)
		}
		for _, st := range pool {
			got := oracle(cols, st)
			nhits, enc, err := src.groundTruth(st.text)
			if err != nil {
				t.Fatalf("%q: %v", st.text, err)
			}
			if got.nhits != nhits {
				t.Errorf("%q: oracle %d hits, GroundTruth %d", st.text, got.nhits, nhits)
			}
			if st.proj != projCount {
				if !bytes.Equal(encodeSelection(got.coords, []uint64{n}), enc) {
					t.Errorf("%q: oracle selection differs from GroundTruth", st.text)
				}
				if size := selectionBytes(&reply{coords: got.coords, dims: []uint64{n}}); size != int64(len(enc)) {
					t.Errorf("%q: selectionBytes %d, encoded %d", st.text, size, len(enc))
				}
			}
			checked++
		}
	}
	if checked < 100 {
		t.Errorf("only %d statements checked", checked)
	}
}

// TestManifest holds BENCHMARK.json and the harness to one vocabulary.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q (or their why differs)", i, w.Name, workloads[i].name)
		}
	}
	listed := make(map[string]bool)
	for _, e := range append(m.EndToEnd, m.PerLayer...) {
		listed[e.Name] = true
		if unit, ok := metricUnits[e.Name]; !ok || unit != e.Unit {
			t.Errorf("metric %s: BENCHMARK.json unit %q, harness %q", e.Name, e.Unit, unit)
		}
	}
	for name := range metricUnits {
		if !listed[name] {
			t.Errorf("metric %s is printed by the harness but missing from BENCHMARK.json", name)
		}
	}
}

// TestSmoke is the whole benchmark at toy size against real pdc-server
// processes: every workload, both trace modes, every named metric
// emitted, nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("process cluster skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "pdc-server")
	if out, err := osexec.Command("go", "build", "-o", bin, "pdcquery/cmd/pdc-server").CombinedOutput(); err != nil {
		t.Fatalf("cannot build pdc-server: %v\n%s", err, out)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, spec := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 11, seconds: 1, trace: trace, server: bin, sessions: 2, logn: 14, setups: 1, rate: mixedOpenRate, outDir: t.TempDir(), stderr: os.Stderr}
			res, err := runWorkload(cfg, spec)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", spec.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d listed: %s", spec.name, trace, len(got), len(want), strings.Join(got, " "))
			}
			for _, e := range want {
				if _, ok := res.Metrics[e.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", spec.name, trace, e.Name)
				}
			}
			if trace {
				if res.Metrics["fail_frac"].Value != 0 {
					t.Errorf("%s: fail_frac %v", spec.name, res.Metrics["fail_frac"].Value)
				}
				if _, err := os.Stat(spansPath(cfg, spec.name)); err != nil {
					t.Errorf("%s: no spans file: %v", spec.name, err)
				}
			}
		}
	}
}
