package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// processCPU returns this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// pidCPU reads another process's user+system CPU time from /proc/<pid>/stat.
func pidCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces; fields after it
	// start at state (field 3), so utime/stime (14, 15) are at 11 and 12.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procStatusMB reads a kB field (VmHWM, VmRSS) of /proc/<pid>/status in MB.
func procStatusMB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// sampleRSS tracks this process's peak resident set over a measured window.
// VmHWM would report the peak of set-up, whose matrix generation is the
// benchmark's own work, so set-up garbage is returned to the OS first and
// VmRSS is sampled every 10 ms until the returned stop function is called.
func sampleRSS() (stop func() (float64, error)) {
	runtime.GC()
	debug.FreeOSMemory()
	quit := make(chan struct{})
	done := make(chan struct{})
	var peak float64
	var firstErr error
	go func() {
		defer close(done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			v, err := procStatusMB("self", "VmRSS")
			if err != nil && firstErr == nil {
				firstErr = err
			}
			peak = max(peak, v)
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() (float64, error) {
		close(quit)
		<-done
		return peak, firstErr
	}
}

// memSnap is a Go runtime allocation snapshot.
type memSnap struct {
	totalAlloc, pauseNs uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.TotalAlloc, m.PauseTotalNs}
}

// scrapeMetrics fetches a Prometheus text exposition and sums every family's
// series (labels dropped).
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// provenance describes the build and machine a result came from. The
// checkout need not be a git repository, so the source is also identified
// by a hash over every Go source and module file in it.
func provenance(e *env, workload string) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if head := gitHead(e.root); head != "" {
		commit = head
	}
	return map[string]any{
		"workload":    workload,
		"seed":        e.seed,
		"seconds":     e.window.Seconds(),
		"traced":      e.trace,
		"commit":      commit,
		"source_hash": sourceHash(e.root),
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"num_cpu":     runtime.NumCPU(),
	}
}

// gitHead reads the checked-out commit from .git without running git.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(id))
}

// sourceHash is a SHA-256 over the path and contents of every .go, go.mod
// and .sh file under root, outside build output.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if n := d.Name(); n == ".git" || n == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || strings.HasSuffix(n, ".sh") {
			data, err := os.ReadFile(p)
			if err == nil {
				rel, _ := filepath.Rel(root, p)
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
