package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// gbpsTolerance is how far (as a share) two hosts' memmove bandwidth may
// differ before their results count as coming from different hosts.
const gbpsTolerance = 0.3

// host is the fingerprint stamped into every result. Results are only
// comparable between equal fingerprints: x-memmove figures still depend on
// the core count, the toolchain and the memory system.
type host struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	MemmoveGBps float64 `json:"memmove_gbps"`
}

// fingerprint describes this process's host, with f's bandwidth as the
// memmove figure.
func fingerprint(f *floor) host {
	return host{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		MemmoveGBps: f.gbps(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sameHost reports why results from a and b must not be compared, or nil.
func sameHost(a, b host) error {
	switch {
	case a.NProc != b.NProc, a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("core counts differ: nproc %d/%d, GOMAXPROCS %d/%d", a.NProc, b.NProc, a.GOMAXPROCS, b.GOMAXPROCS)
	case a.GoVersion != b.GoVersion:
		return fmt.Errorf("Go versions differ: %s vs %s", a.GoVersion, b.GoVersion)
	case a.CPUModel != b.CPUModel:
		return fmt.Errorf("CPU models differ: %q vs %q", a.CPUModel, b.CPUModel)
	case !(a.MemmoveGBps > 0 && b.MemmoveGBps > 0) ||
		math.Abs(math.Log(a.MemmoveGBps/b.MemmoveGBps)) > math.Log1p(gbpsTolerance):
		return fmt.Errorf("memmove bandwidth differs beyond %.0f%%: %.2f vs %.2f GB/s", 100*gbpsTolerance, a.MemmoveGBps, b.MemmoveGBps)
	}
	return nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so the next peakRSSMB covers only what follows.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}

// result is one workload's record, written to the -out directory and read
// back by the compare subcommand.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     host    `json:"host"`
	Samples  int     `json:"samples"`
	Attempts int     `json:"attempted"`
	Failed   int     `json:"failed"`
	// CheckError describes the first wrong output, if any op had one.
	CheckError string             `json:"check_error,omitempty"`
	Metrics    map[string]metric  `json:"metrics"`
	Raw        map[string]float64 `json:"raw,omitempty"`
}

// dropNonFinite zeroes values that have no samples behind them (a run in
// which every op failed), which JSON cannot carry.
func (r *result) dropNonFinite() {
	for k, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.Metrics[k] = metric{0, m.Unit}
		}
	}
	for k, v := range r.Raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Raw[k] = 0
		}
	}
}

func (r *result) setCheckError(err error) {
	if err != nil {
		r.CheckError = err.Error()
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// readResult loads a result file written with -out.
func readResult(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareResults prints new's metrics against old's, refusing results
// from different workloads or hosts.
func compareResults(oldPath, newPath string) error {
	o, err := readResult(oldPath)
	if err != nil {
		return err
	}
	n, err := readResult(newPath)
	if err != nil {
		return err
	}
	if o.Workload != n.Workload {
		return fmt.Errorf("workloads differ: %s vs %s", o.Workload, n.Workload)
	}
	if err := sameHost(o.Host, n.Host); err != nil {
		return fmt.Errorf("refusing to compare across hosts: %w", err)
	}
	for _, name := range sortedKeys(n.Metrics) {
		nm := n.Metrics[name]
		om, ok := o.Metrics[name]
		if !ok {
			fmt.Printf("%-28s %12.4g %-6s (new)\n", name, nm.Value, nm.Unit)
			continue
		}
		fmt.Printf("%-28s %12.4g -> %12.4g %-6s %+7.1f%%\n", name, om.Value, nm.Value, nm.Unit, 100*(nm.Value/om.Value-1))
	}
	return nil
}
