package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// series is one /metrics scrape: sample name (with its label set, as
// written) to value.
type series map[string]float64

// parseExposition reads a Prometheus text exposition strictly: the
// repo's own validator must accept it, and every sample line must be
// `name[{labels}] value` with a parseable value.
func parseExposition(body []byte) (series, error) {
	if err := checkExposition(body); err != nil {
		return nil, err
	}
	out := make(series)
	for i, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", i+1, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// delta is after - before, series by series (a series absent before
// counts from zero).
func delta(before, after series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// scrape fetches and parses one member's /metrics.
func scrape(addr string) (series, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", addr, resp.StatusCode)
	}
	return parseExposition(body)
}

func scrapeAll(addrs []string) ([]series, error) {
	out := make([]series, len(addrs))
	for i, a := range addrs {
		s, err := scrape(a)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// procSample is what /proc says about one process.
type procSample struct {
	pid     int
	cpuTick int64 // utime + stime, clock ticks
	hwmKB   int64 // VmHWM: peak resident set
}

// clockTick is USER_HZ, 100 on every Linux the benchmark targets.
const clockTick = 100

// statFields splits /proc/<pid>/stat after the parenthesised command
// (which may itself hold spaces): fields[0] is the state, so ppid is
// fields[1], utime fields[11] and stime fields[12].
func statFields(stat string) (comm string, fields []string, err error) {
	l, r := strings.IndexByte(stat, '('), strings.LastIndexByte(stat, ')')
	if l < 0 || r < l {
		return "", nil, fmt.Errorf("malformed stat line %q", stat)
	}
	fields = strings.Fields(stat[r+1:])
	if len(fields) < 13 {
		return "", nil, fmt.Errorf("short stat line %q", stat)
	}
	return stat[l+1 : r], fields, nil
}

// readProc samples one process and returns its parent pid.
func readProc(dir string) (procSample, int, error) {
	var s procSample
	raw, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, 0, err
	}
	_, f, err := statFields(string(raw))
	if err != nil {
		return s, 0, err
	}
	s.pid, _ = strconv.Atoi(strings.Fields(string(raw))[0])
	ppid, _ := strconv.Atoi(f[1])
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	s.cpuTick = ut + st
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			s.hwmKB, _ = strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
		}
	}
	return s, ppid, nil
}

// sampleSelf reads the generator's own CPU.
func sampleSelf() (procSample, error) {
	s, _, err := readProc("/proc/self")
	return s, err
}

// sampleChildren reads every live child of this process — the catalog
// and the members of the one deployment alive at a time.
// ProcessDeployment does not expose pids, so they are found by parent.
func sampleChildren() ([]procSample, error) {
	self, err := sampleSelf()
	if err != nil {
		return nil, err
	}
	dirs, err := filepath.Glob("/proc/[0-9]*")
	if err != nil {
		return nil, err
	}
	var out []procSample
	for _, d := range dirs {
		s, ppid, err := readProc(d)
		if err != nil || ppid != self.pid {
			continue // raced with an exit, or not ours
		}
		out = append(out, s)
	}
	return out, nil
}

func sumCPU(ps []procSample) (ticks int64) {
	for _, p := range ps {
		ticks += p.cpuTick
	}
	return ticks
}

func sumHWM(ps []procSample) (kb int64) {
	for _, p := range ps {
		kb += p.hwmKB
	}
	return kb
}
