package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// benchProcs is the GOMAXPROCS every run is pinned to: the two cores of the
// box the op counts were calibrated on, so the kernel pool, the spmd ranks
// and the two serving clients see the same parallelism everywhere.
const benchProcs = 2

// envStamp says where a number was measured. It is printed before the
// metrics of every run and stored in trace.json and AA.md.
type envStamp struct {
	Commit     string            `json:"commit"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	CPUModel   string            `json:"cpu_model"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Caches     map[string]string `json:"caches"`
	LLCBytes   int64             `json:"llc_bytes"`
}

func readEnv() envStamp {
	e := envStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Caches:     map[string]string{},
	}
	// The driver's checkout is not a git repository, so the commit is only
	// known when the toolchain stamped it into the binary.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		size := readTrim(filepath.Join(d, "size"))
		if level == "" || size == "" {
			continue
		}
		e.Caches["L"+level+strings.ToLower(readTrim(filepath.Join(d, "type")))] = size
		if b := parseSize(size); b > e.LLCBytes {
			e.LLCBytes = b
		}
	}
	return e
}

func readTrim(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(raw))
}

// parseSize reads the sysfs cache size form ("48K", "4096K", "260M").
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}
