package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"nfp/internal/dataplane"
)

// printMeta prints the run metadata that goes with every result.
func printMeta(w *workload, seed int64, seconds, trace int) {
	fmt.Printf("dpbench: workload %s, seed %d, %d s, trace %d, open-loop rate %d pkt/s\n", w.name, seed, seconds, trace, w.rate)
	fmt.Printf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s, shards %d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), dataplane.DefaultShards())
	fmt.Printf("commit: %s\n", commit())
}

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

// commit identifies the code under test: the git revision go build
// stamped into the binary, marked when the tree had local changes.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			modified = " (modified)"
		}
	}
	if rev == "" {
		return "unknown (not built in a git checkout)"
	}
	return "git " + rev + modified
}
