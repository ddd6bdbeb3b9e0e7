package core

import (
	"sync"

	"dooc/internal/obs"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// kernelMetrics are the dooc_kernel_* series: kernel-layer dispatch counts
// plus the decode pipeline's overlap accounting. All counters are nil-safe,
// so a System without a registry pays nothing.
type kernelMetrics struct {
	fused   *obs.Counter
	blocked *obs.Counter
	scalar  *obs.Counter

	pipeDecodes *obs.Counter
	pipeStalls  *obs.Counter
	pipeWaits   *obs.Counter
	pipeOverlap *obs.Counter

	// Matrix blocks an executor multiplied straight out of its read lease:
	// every section aliased in place, or at least one copied.
	viewAlias *obs.Counter
	viewCopy  *obs.Counter
}

func newKernelMetrics(reg *obs.Registry) kernelMetrics {
	if reg == nil {
		return kernelMetrics{}
	}
	return kernelMetrics{
		fused:       reg.Counter("dooc_kernel_fused_calls_total", "fused SpMV+AXPY/dot kernel invocations"),
		blocked:     reg.Counter("dooc_kernel_blocked_dispatch_total", "SpMV dispatches taking the cache-blocked traversal"),
		scalar:      reg.Counter("dooc_kernel_scalar_dispatch_total", "SpMV dispatches taking the row-serial traversal"),
		pipeDecodes: reg.Counter("dooc_kernel_pipeline_decodes_total", "matrix blocks decoded ahead of use by the pipeline"),
		pipeStalls:  reg.Counter("dooc_kernel_pipeline_stalls_total", "matrix requests that decoded synchronously on the compute path"),
		pipeWaits:   reg.Counter("dooc_kernel_pipeline_waits_total", "matrix requests that blocked on an in-flight pipeline decode"),
		pipeOverlap: reg.Counter("dooc_kernel_pipeline_overlap_total", "pipeline-decoded blocks consumed after their decode fully overlapped compute"),
		viewAlias:   reg.Counter("dooc_kernel_matrix_views_total", "matrix blocks multiplied from their read lease", obs.L("mode", "alias")),
		viewCopy:    reg.Counter("dooc_kernel_matrix_views_total", "matrix blocks multiplied from their read lease", obs.L("mode", "copy")),
	}
}

// decodePipeline is the double-buffered decode stage of a node: while the
// computing filter multiplies with block i, the pipeline goroutine decodes
// block i+1 (codec frame -> raw bytes -> CSR) into the node's decode cache,
// fed by the local scheduler's prefetch order. Decompression and CSR
// materialization thereby leave the critical path; the computing filter
// only stalls when it outruns the pipeline (counted, and the overlap
// counter proves when it does not).
//
// Decoding never changes bits — the pipeline produces exactly the CSR the
// synchronous path would, only earlier — so scheduling here cannot affect
// result hashes.
type decodePipeline struct {
	store *storage.Store
	cache *decodeCache
	m     kernelMetrics

	req  chan string
	stop chan struct{}
	wg   sync.WaitGroup

	mu       sync.Mutex
	queued   map[string]bool
	inflight map[string]chan struct{}
}

// newDecodePipeline starts the node's decode goroutine. Requires a live
// cache (the pipeline's only output channel is cache residency).
func newDecodePipeline(store *storage.Store, cache *decodeCache, m kernelMetrics) *decodePipeline {
	p := &decodePipeline{
		store:    store,
		cache:    cache,
		m:        m,
		req:      make(chan string, 32),
		stop:     make(chan struct{}),
		queued:   make(map[string]bool),
		inflight: make(map[string]chan struct{}),
	}
	p.wg.Add(1)
	go p.loop()
	return p
}

func (p *decodePipeline) loop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			return
		case name := <-p.req:
			p.decode(name)
		}
	}
}

// decode materializes one block into the cache, publishing an in-flight
// channel so a consumer that catches up can wait instead of duplicating the
// decode.
func (p *decodePipeline) decode(name string) {
	p.mu.Lock()
	delete(p.queued, name)
	if p.cache.peek(name) || p.inflight[name] != nil {
		p.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	p.inflight[name] = ch
	p.mu.Unlock()

	defer func() {
		p.mu.Lock()
		delete(p.inflight, name)
		p.mu.Unlock()
		close(ch)
	}()

	lease, err := p.store.RequestBlock(name, 0, storage.PermRead)
	if err != nil {
		return // consumer will decode synchronously and surface the error
	}
	m, err := sparse.DecodeCRSBytes(lease.Data)
	lease.Release()
	if err != nil {
		return
	}
	p.cache.putPipelined(name, m)
	p.m.pipeDecodes.Inc()
}

// wants reports whether the engine should still issue a storage prefetch
// for this array, enqueueing it for decode as a side effect. Blocks already
// decoded or in the pipeline need no further I/O.
func (p *decodePipeline) wants(name string) bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	if p.cache.peek(name) {
		p.mu.Unlock()
		return false
	}
	if p.queued[name] || p.inflight[name] != nil {
		p.mu.Unlock()
		return false
	}
	select {
	case p.req <- name:
		p.queued[name] = true
	default:
		// Queue full: leave it to the storage prefetcher; a later pick
		// retries the enqueue.
	}
	p.mu.Unlock()
	return true
}

// matrix is the consumer entry point: cache hit, else wait for an in-flight
// pipeline decode, else decode synchronously (a pipeline stall).
func (p *decodePipeline) matrix(store *storage.Store, array string) (*sparse.CSR, error) {
	c := p.cache
	c.mu.Lock()
	if e, ok := c.entries[array]; ok {
		m := c.hitLocked(e)
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()

	p.mu.Lock()
	ch := p.inflight[array]
	p.mu.Unlock()
	if ch != nil {
		// The decode is running right now: waiting is cheaper than a duplicate
		// decode, but it is not overlap — strip the credit.
		p.m.pipeWaits.Inc()
		<-ch
		c.clearPipelined(array)
		c.mu.Lock()
		if e, ok := c.entries[array]; ok {
			m := c.hitLocked(e)
			c.mu.Unlock()
			return m, nil
		}
		c.mu.Unlock()
		// Pipeline decode failed; fall through to the synchronous path so the
		// error surfaces on the task.
	}
	p.m.pipeStalls.Inc()
	return c.matrix(store, array)
}

// close stops the pipeline goroutine and waits for any in-flight decode.
func (p *decodePipeline) close() {
	if p == nil {
		return
	}
	close(p.stop)
	p.wg.Wait()
}
