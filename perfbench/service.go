package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dooc/internal/core"
	"dooc/internal/jobs"
	"dooc/internal/obs"
	"dooc/internal/remote"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// server is one doocserve -jobs subprocess.
type server struct {
	cmd      *exec.Cmd
	addr     string // job service address, parsed from its log
	httpAddr string
	done     chan struct{} // closed once the process has been waited for
	mu       sync.Mutex
	log      []string // last lines of its log, for error reports
}

// live tracks every started server so a signal can still stop them.
var live = struct {
	sync.Mutex
	m map[*server]bool
}{m: map[*server]bool{}}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer starts doocserve -jobs with its shipped defaults over the
// staged matrix in scratch, on an ephemeral port, plus an HTTP address for
// /metrics. It returns once the job service and /metrics answer.
func startServer(e *env, scratch, tracePath string) (*server, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-scratch", scratch, "-jobs", "-listen", "127.0.0.1:0", "-http", httpAddr}
	if tracePath != "" {
		args = append(args, "-trace", tracePath)
	}
	s := &server{cmd: exec.Command(e.doocserve, args...), httpAddr: httpAddr, done: make(chan struct{})}
	// The kernel kills the server if the benchmark dies without stopping it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stdout = io.Discard
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	live.m[s] = true
	live.Unlock()
	addrCh := make(chan string, 1)
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.log = append(s.log, line)
			if len(s.log) > 20 {
				s.log = s.log[1:]
			}
			s.mu.Unlock()
			// "doocserve: job service on 127.0.0.1:40119 (max-jobs=...)"
			if _, rest, ok := strings.Cut(line, "job service on "); ok {
				if addr, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addrCh <- addr:
					default:
					}
				}
			}
		}
	}()
	go func() {
		_ = s.cmd.Wait()
		<-logDone
		close(s.done)
	}()
	select {
	case s.addr = <-addrCh:
	case <-s.done:
		return nil, fmt.Errorf("doocserve exited during start: %s", s.tail())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("doocserve did not report its address: %s", s.tail())
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		if _, err := scrapeMetrics("http://" + httpAddr + "/metrics"); err == nil {
			return s, nil
		} else if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("doocserve /metrics not ready: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.log, " | ")
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks the server to drain and exit, killing it if it does not within
// 20 s, and waits until it has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	live.Lock()
	delete(live.m, s)
	live.Unlock()
}

// stopAllServers kills every server still running (signal path).
func stopAllServers() {
	live.Lock()
	defer live.Unlock()
	for s := range live.m {
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// leftoverServers lists running processes whose executable is bin.
func leftoverServers(bin string) []int {
	entries, _ := os.ReadDir("/proc")
	var out []int
	for _, d := range entries {
		pid, err := strconv.Atoi(d.Name())
		if err != nil {
			continue
		}
		if exe, err := os.Readlink("/proc/" + d.Name() + "/exe"); err == nil && exe == bin {
			out = append(out, pid)
		}
	}
	return out
}

// jobRecord is one completed job as the client saw it.
type jobRecord struct {
	seed               int64
	sha                [32]byte
	submitMs, resultMs float64
	queueMs, runMs     float64
	done               time.Time
	traceID            string
	id                 int64
}

func (j jobRecord) totalMs() float64 { return j.submitMs + j.resultMs }

// jobSeeds are the start-vector seeds the load generator cycles through.
func jobSeeds(seed int64) []int64 {
	return []int64{seed*10 + 1, seed*10 + 2, seed*10 + 3, seed*10 + 4}
}

// servicePhase is one measured window of jobs, in completion order; cpu is
// the server's.
type servicePhase struct {
	phase
	jobs          []jobRecord
	bytesIn       float64
	before, after map[string]float64
	rss           float64 // server VmHWM, MB, read once rssJobs jobs are done
	rssJobs       int
}

// rssAtJobs is the job count at which the server's peak RSS is read. Every
// by-value result stays retained, so the server grows with jobs completed;
// reading at a fixed count keeps a faster or slower machine from moving the
// metric. Runs that finish fewer jobs read it at the end of the window.
const rssAtJobs = 1000

// runJobs drives the closed loop: jobConns connections, one tenant each,
// each submitting an unkeyed by-value job and blocking on its result, as
// doocrun -server does, until the window ends.
func runJobs(e *env, s *server, window time.Duration, warmup bool) (*servicePhase, error) {
	iters := e.size.jobIters
	p := &servicePhase{}
	var err error
	if !warmup {
		if p.before, err = scrapeMetrics("http://" + s.httpAddr + "/metrics"); err != nil {
			return nil, err
		}
	}
	cpu0, err := pidCPU(s.pid())
	if err != nil {
		return nil, err
	}
	seeds := jobSeeds(e.seed)
	start := time.Now()
	deadline := start.Add(window)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < jobConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reg := obs.NewRegistry()
			cl, err := remote.DialOptions(s.addr, remote.Options{Obs: reg})
			if err != nil {
				mu.Lock()
				p.errs++
				mu.Unlock()
				fmt.Fprintln(os.Stderr, "perfbench: dial:", err)
				return
			}
			defer cl.Close()
			tenant := fmt.Sprintf("tenant%d", c)
			for i := 0; i == 0 || (!warmup && time.Now().Before(deadline)); i++ {
				seed := seeds[(c+i*jobConns)%len(seeds)]
				t0 := time.Now()
				st, err := cl.SubmitJob(jobs.SolveRequest{Tenant: tenant, Iters: iters, Seed: seed})
				t1 := time.Now()
				var data []byte
				var final jobs.JobStatus
				if err == nil {
					data, final, err = cl.JobResult(st.ID)
				}
				t2 := time.Now()
				mu.Lock()
				if err != nil {
					p.errs++
					fmt.Fprintln(os.Stderr, "perfbench: job:", err)
				} else {
					p.jobs = append(p.jobs, jobRecord{
						seed: seed, sha: sha256.Sum256(data), id: st.ID, traceID: final.TraceID,
						submitMs: ms(t1.Sub(t0)), resultMs: ms(t2.Sub(t1)),
						queueMs: final.QueueWait * 1e3, runMs: ms(final.FinishedAt.Sub(final.StartedAt)),
						done: t2,
					})
					if !warmup && len(p.jobs) == rssAtJobs {
						p.rss, p.rssJobs = readHWM(s.pid()), rssAtJobs
					}
				}
				mu.Unlock()
			}
			mu.Lock()
			p.bytesIn += float64(reg.Sum("dooc_remote_client_bytes_in_total"))
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	cpu1, err := pidCPU(s.pid())
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if warmup {
		return p, nil
	}
	if p.after, err = scrapeMetrics("http://" + s.httpAddr + "/metrics"); err != nil {
		return nil, err
	}
	if p.rssJobs == 0 {
		p.rss, p.rssJobs = readHWM(s.pid()), len(p.jobs)
	}
	if p.rss <= 0 {
		return nil, fmt.Errorf("reading doocserve VmHWM failed")
	}
	sort.Slice(p.jobs, func(i, j int) bool { return p.jobs[i].done.Before(p.jobs[j].done) })
	p.opMs = p.each(jobRecord.totalMs)
	p.iters = float64(len(p.jobs) * iters)
	return p, nil
}

// readHWM reads a process's VmHWM in MB, 0 when it cannot be read.
func readHWM(pid int) float64 {
	v, err := procStatusMB(strconv.Itoa(pid), "VmHWM")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: doocserve VmHWM:", err)
	}
	return v
}

func (p *servicePhase) each(f func(jobRecord) float64) []float64 {
	out := make([]float64, len(p.jobs))
	for i, j := range p.jobs {
		out[i] = f(j)
	}
	return out
}

func (p *servicePhase) delta(name string) float64 { return p.after[name] - p.before[name] }

// serverStorage reads the storage counters out of a /metrics scrape.
func serverStorage(m map[string]float64) storage.Stats {
	c := func(name string) int64 { return int64(m["dooc_storage_"+name+"_total"]) }
	return storage.Stats{
		Hits: c("cache_hits"), Misses: c("cache_misses"), Evictions: c("evictions"),
		BlockLoads: c("block_loads"), BytesReadDisk: c("disk_read_bytes"), BytesWrittenDisk: c("disk_write_bytes"),
		PrefetchLoads: c("prefetch_loads"), PrefetchHits: c("prefetch_hits"),
	}
}

// serviceRig is a staged matrix and the server running over it.
type serviceRig struct {
	dir  string
	m    *sparse.CSR
	info core.StagedMatrixInfo
	srv  *server
}

func (r *serviceRig) close() {
	if r.srv != nil {
		r.srv.stop()
	}
	os.RemoveAll(r.dir)
}

// serviceSetup generates and stages the matrix, starts doocserve over it,
// and runs one warm-up job per connection.
func serviceSetup(e *env, dir, tracePath string) (*serviceRig, error) {
	sz := e.size
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: sz.jobDim, Cols: sz.jobDim, D: sz.jobD, Seed: e.seed})
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(dir, "stage")
	cfg := core.SpMVConfig{Dim: sz.jobDim, K: gridK, Iters: 1, Nodes: nodes}
	if err := core.StageMatrix(scratch, m, cfg); err != nil {
		return nil, err
	}
	info, err := core.DiscoverStagedMatrix(scratch)
	if err != nil {
		return nil, err
	}
	r := &serviceRig{dir: dir, m: m, info: info}
	if r.srv, err = startServer(e, scratch, tracePath); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w, err := runJobs(e, r.srv, 0, true)
	if err == nil && w.errs > 0 {
		err = fmt.Errorf("warm-up job failed")
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// serviceRefs computes each job seed's result SHA in process: the same
// staged blocks, loaded in memory, same engine shape and iteration count.
func serviceRefs(e *env, m *sparse.CSR) (map[int64][32]byte, error) {
	cfg := core.SpMVConfig{Dim: e.size.jobDim, K: gridK, Iters: e.size.jobIters, Nodes: nodes}
	sys, err := core.NewSystem(core.Options{Nodes: nodes, WorkersPerNode: workersPerNode})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	if err := core.LoadMatrixInMemory(sys, m, cfg); err != nil {
		return nil, err
	}
	refs := map[int64][32]byte{}
	for _, seed := range jobSeeds(e.seed) {
		cfg.Tag = fmt.Sprintf("ref%d", seed)
		res, err := core.RunIteratedSpMV(sys, cfg, jobs.StartVector(cfg.Dim, seed))
		if err != nil {
			return nil, err
		}
		refs[seed] = resultSHA(res.X)
	}
	return refs, nil
}

// countWrongJobs counts jobs whose result SHA differs from their seed's
// reference.
func countWrongJobs(js []jobRecord, refs map[int64][32]byte) int64 {
	var n int64
	for _, j := range js {
		if ref, ok := refs[j.seed]; !ok || ref != j.sha {
			n++
		}
	}
	return n
}

func runService(e *env) (*outcome, error) {
	r, setupS, err := repeatSetup(e, "service", func(dir string) (*serviceRig, error) { return serviceSetup(e, dir, "") })
	if err != nil {
		return nil, err
	}
	defer r.close()
	out := &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
	out.info = map[string]any{
		"matrix_dim": r.info.Dim, "matrix_nnz": r.info.NNZ, "matrix_bytes": r.info.Bytes,
		"node_budget_bytes": int64(1 << 30), "nodes": r.info.Nodes, "workers_per_node": workersPerNode,
		"iters_per_job": e.size.jobIters, "connections": jobConns, "setup_reps": e.size.setupReps,
	}
	window := e.window
	if e.trace {
		window /= 2
	}
	plain, err := runJobs(e, r.srv, window, false)
	if err != nil {
		return nil, err
	}
	if len(plain.jobs) == 0 {
		return nil, fmt.Errorf("no job completed")
	}
	// Its retained results are no longer needed; free the memory before a
	// traced server starts.
	r.srv.stop()
	phases := []*servicePhase{plain}

	var traced *servicePhase
	var spans []span
	if e.trace {
		tracePath := filepath.Join(e.work, "doocserve-trace.json")
		tr, err := serviceSetup(e, filepath.Join(e.work, "service-traced"), tracePath)
		if err != nil {
			return nil, err
		}
		defer tr.close()
		if traced, err = runJobs(e, tr.srv, window, false); err != nil {
			return nil, err
		}
		if len(traced.jobs) == 0 {
			return nil, fmt.Errorf("no traced job completed")
		}
		tr.srv.stop() // writes the trace
		data, err := os.ReadFile(tracePath)
		if err != nil {
			return nil, fmt.Errorf("doocserve trace: %w", err)
		}
		if spans, err = parseSpans(data); err != nil {
			return nil, fmt.Errorf("doocserve trace: %w", err)
		}
		phases = append(phases, traced)
	}

	refs, err := serviceRefs(e, r.m)
	if err != nil {
		return nil, err
	}
	for _, p := range phases {
		out.attempted += int64(len(p.jobs)) + p.errs
		out.failed += countWrongJobs(p.jobs, refs) + p.errs
	}

	out.setE2E(&plain.phase, setupS, plain.rss, e.size.setupReps)
	out.info["job_seeds"] = jobSeeds(e.seed)
	out.info["server_cpu_clock_ticks_per_s"] = clockTicks
	out.info["peak_rss_read_at_jobs"] = plain.rssJobs
	if !e.trace {
		return out, nil
	}

	// Counters and client timings come from the untraced phase; engine and
	// storage spans from the traced server.
	n := float64(len(plain.jobs))
	jobMs := plain.opMs
	m := out.metrics
	storageMetrics(m, serverStorage(plain.before), serverStorage(plain.after), plain.iters)
	m["scheduler.reorders_per_iter"] = plain.delta("dooc_sched_reorders_total") / plain.iters
	m["scheduler.prefetch_refs_per_iter"] = plain.delta("dooc_sched_prefetch_refs_total") / plain.iters
	m["proxy.handles_live_end"] = plain.after["dooc_proxy_handles"]
	m["remote.submit_ms_p50"] = median(plain.each(func(j jobRecord) float64 { return j.submitMs }))
	m["remote.result_ms_p50"] = median(plain.each(func(j jobRecord) float64 { return j.resultMs }))
	m["remote.client_bytes_in_per_job"] = plain.bytesIn / n
	m["jobs.queue_wait_ms_p50"] = median(plain.each(func(j jobRecord) float64 { return j.queueMs }))
	m["jobs.run_ms_p50"] = median(plain.each(func(j jobRecord) float64 { return j.runMs }))
	m["jobs.overhead_ms_p50"] = median(plain.each(func(j jobRecord) float64 { return j.totalMs() - j.queueMs - j.runMs }))
	tenth := max(len(jobMs)/10, 1)
	m["service.latency_drift_ratio"] = median(jobMs[len(jobMs)-tenth:]) / median(jobMs[:tenth])

	// Engine split per traced job: its run span on the server, and the task
	// spans carrying its trace ID. Lease grants and I/O are not tagged with a
	// job, so with jobs running concurrently they stay inside the tasks'
	// compute share here.
	runSpans := map[string]span{}
	for _, s := range spans {
		if s.cat == "jobs" && strings.HasSuffix(s.name, " run") {
			runSpans[s.traceID] = s
		}
	}
	var eng engineTotals
	var runMs []float64
	var lo, hi float64
	for _, j := range traced.jobs {
		rs, ok := runSpans[j.traceID]
		if !ok {
			return nil, fmt.Errorf("doocserve trace has no run span for job %d", j.id)
		}
		id := j.traceID
		eng.addWindow(spans, rs.start, rs.end, func(s span) bool { return s.traceID == id })
		runMs = append(runMs, rs.dur()/1e3)
		if lo == 0 || rs.start < lo {
			lo = rs.start
		}
		hi = max(hi, rs.end)
	}
	tIters := traced.iters
	engineMetrics(m, &eng, tIters, float64(len(runMs)), runMs)
	var taskUs, queuedUs, grantUs, ioUs float64
	for _, s := range spansIn(spans, lo, hi) {
		switch {
		case s.isTask():
			taskUs += s.dur()
		case s.cat == "queued":
			queuedUs += s.dur()
		case s.isGrant():
			grantUs += s.dur()
		case s.isIO():
			ioUs += s.dur()
		}
	}
	m["core.worker_busy_ratio"] = taskUs / (float64(nodes*workersPerNode) * (hi - lo))
	m["core.queue_wait_ms_per_iter"] = queuedUs / 1e3 / tIters
	m["storage.io_busy_ms_per_iter"] = ioUs / 1e3 / tIters
	m["storage.lease_wait_ms_per_iter"] = grantUs / 1e3 / tIters
	pr, err := runProbe(filepath.Join(r.dir, "stage"), gridK, nodes, 600*time.Millisecond)
	if err != nil {
		return nil, err
	}
	pr.metrics(m)

	totals := map[string]float64{}
	eng.bucketsMs(totals)
	for _, j := range traced.jobs {
		totals["submit"] += j.submitMs
		totals["queue"] += j.queueMs
		totals["job_overhead"] += j.resultMs - j.queueMs - j.runMs
	}
	// Each connection's share of the window: the jobs of one connection run
	// back to back, so the traced wall is connections × window.
	wallMs := float64(jobConns) * ms(traced.wall)
	out.split = makeSplit(m, totals, wallMs, tIters)
	m["trace.overhead_ratio"] = traced.iterP50() / plain.iterP50()
	zeroAbsent(m)
	out.samples["traced_jobs"] = len(traced.jobs)
	return out, nil
}
