package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the record printed with every result: the host, the
// toolchain, the code under test, the seed, and the sizes of the stores
// and caches the workload used.
func environment(o options, w *workload, st *stand) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	e := map[string]any{
		"workload":             w.name,
		"seed":                 o.seed,
		"seconds":              o.seconds,
		"trace":                o.trace,
		"nproc":                runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"cpu":                  cpuModel(),
		"go":                   runtime.Version(),
		"commit":               commit,
		"source_sha256":        sourceDigest("."),
		"executions":           st.cfg.Executions,
		"fact_rows":            st.cfg.Rows(),
		"cache_bytes_per_exec": cacheBytes,
		"cache_shards":         cacheShards,
		"open_rate_per_s":      w.rate,
		"closed_workers":       runtime.NumCPU(),
	}
	if w.disk {
		e["page_cache_bytes"] = pageCacheBytes
		e["store_disk_bytes"] = diskBytes(st.dir)
	}
	if w.publishEvery > 0 {
		e["publish_every_s"] = w.publishEvery.Seconds()
		e["publish_batch"] = publishBatch
	}
	return e
}

// cpuModel reads the processor name from /proc/cpuinfo, where present.
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

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
