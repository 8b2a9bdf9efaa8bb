package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp records where and how the numbers were taken, so that numbers from
// another host are never compared blind.
type stamp struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	StateFS    string  `json:"state_fs"` // filesystem under the checkpoint directory
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Workers    int     `json:"workers"`
	Setups     int     `json:"setups"`
}

func newStamp(cfg config, p *plan) stamp {
	return stamp{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		StateFS:    fsType(cfg.state),
		Workload:   p.workload,
		Seed:       p.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Workers:    p.workers,
		Setups:     setups,
	}
}

// cpuModel reads the first model name from /proc/cpuinfo.
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

// fsType returns the type of the filesystem mounted at the longest mount
// point that is a prefix of path, from /proc/self/mounts.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}

// writeLines prints the report line and, last, the result line.
func writeLines(w io.Writer, rep report, res result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return enc.Encode(res)
}

// writeSpans writes every kept span of the traced phase as one JSON array.
func writeSpans(path string, trs []*tracer) (kept int, dropped int64, err error) {
	var all []span
	for _, tr := range trs {
		all = append(all, tr.spans...)
		dropped += tr.dropped
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(all); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return len(all), dropped, f.Close()
}
