package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	semisort "repro"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/rec"
)

// ErrQueueFull is returned by Pool.Acquire when the bounded wait queue is
// already at capacity; handlers translate it to 503 + Retry-After.
var ErrQueueFull = errors.New("server: admission queue full")

// A Pool is a fixed set of warm semisort workspaces with admission
// control. At most Size requests hold a workspace at once; at most
// MaxQueue more may wait. Anything beyond that is shed immediately
// (ErrQueueFull) rather than queued without bound — under overload the
// pool's latency stays flat and the pressure becomes visible to clients
// as 503s, not as an ever-growing queue.
//
// Per-tenant memory budgets: each workspace a tenant touches runs its
// sort with Config.MaxRetainedBytes = budget/Size, so after any request
// the workspace retains at most a 1/Size share of the tenant's budget.
// The share covers the worker's request buffers too (its decoded input
// and its wire chunk, see Worker): Release drops them when the sort's
// retention plus the buffers would exceed it. Since a tenant's retained
// memory lives only on workspaces that served it last, its total pinned
// memory never exceeds its budget no matter how hot it runs or how the
// scheduler spreads it over the pool.
type Pool struct {
	size     int
	maxQueue int64
	workers  chan *Worker
	waiters  atomic.Int64
	gauges   *obsv.PoolGauges

	defaultBudget int64
	budgets       map[string]int64

	// mu guards the idle-retention attribution: which tenant each idle
	// worker's scratch belongs to, and the per-tenant totals.
	mu       sync.Mutex
	byTenant map[string]int64
}

// A Worker is one pool slot: a warm Sorter, the request buffers, and
// release bookkeeping. Between Acquire and Release it is owned
// exclusively by one request.
type Worker struct {
	id     int
	sorter *semisort.Sorter
	// in holds the request's decoded records; wire is the chunk the body
	// is read through and the response encoded through. Both are reused
	// from request to request, so a warm worker serves without
	// allocating.
	in   []semisort.Record
	wire []byte
	// retained is this worker's sorter scratch plus its request buffers
	// as of its last release, mirrored into the pool's RetainedBytes
	// gauge and the per-tenant attribution (guarded by Pool.mu).
	retained   int64
	lastTenant string
}

// wireChunk is the size of a worker's wire buffer: 4096 records.
const wireChunk = 4096 * rec.RecordSize

// Sorter returns the workspace-owning sorter. Valid only between
// Acquire and Release.
func (w *Worker) Sorter() *semisort.Sorter { return w.sorter }

// chunk returns the worker's wire buffer at its full wireChunk length,
// allocating it on first use.
func (w *Worker) chunk() []byte {
	if cap(w.wire) < wireChunk {
		w.wire = make([]byte, wireChunk)
	}
	return w.wire[:wireChunk]
}

// bufferBytes is the memory the worker's request buffers hold.
func (w *Worker) bufferBytes() int64 {
	return int64(cap(w.in))*rec.RecordSize + int64(cap(w.wire))
}

type poolConfig struct {
	Size          int
	MaxQueue      int
	BaseConfig    semisort.Config
	DefaultBudget int64
	Budgets       map[string]int64
	Gauges        *obsv.PoolGauges
}

func newPool(pc poolConfig) *Pool {
	p := &Pool{
		size:          pc.Size,
		maxQueue:      int64(pc.MaxQueue),
		workers:       make(chan *Worker, pc.Size),
		gauges:        pc.Gauges,
		defaultBudget: pc.DefaultBudget,
		budgets:       pc.Budgets,
		byTenant:      make(map[string]int64),
	}
	if p.gauges == nil {
		p.gauges = &obsv.PoolGauges{}
	}
	for i := 0; i < pc.Size; i++ {
		cfg := pc.BaseConfig
		p.workers <- &Worker{id: i, sorter: semisort.NewSorter(&cfg)}
	}
	return p
}

// Size returns the number of workspaces in the pool.
func (p *Pool) Size() int { return p.size }

// Gauges returns the pool's live counters.
func (p *Pool) Gauges() *obsv.PoolGauges { return p.gauges }

// TenantBudget returns the retained-bytes budget for tenant (the
// configured per-tenant override, else the default budget; 0 = no cap).
func (p *Pool) TenantBudget(tenant string) int64 {
	if b, ok := p.budgets[tenant]; ok {
		return b
	}
	return p.defaultBudget
}

// workerBudget is the per-workspace MaxRetainedBytes share enforcing the
// tenant's pool-wide budget.
func (p *Pool) workerBudget(tenant string) int64 {
	b := p.TenantBudget(tenant)
	if b <= 0 {
		return 0
	}
	share := b / int64(p.size)
	if share < 1 {
		share = 1 // a zero share would mean "retain everything"
	}
	return share
}

// Acquire checks a worker out of the pool for the current request,
// waiting until one frees up, ctx is done, or the wait queue is full.
// The admission fault point lets tests force the shed path
// deterministically.
func (p *Pool) Acquire(ctx context.Context) (*Worker, error) {
	if fault.Should(fault.ServerAdmission) {
		p.gauges.Rejections.Add(1)
		return nil, ErrQueueFull
	}
	// Fast path: a worker is idle right now.
	select {
	case w := <-p.workers:
		p.admit(w)
		return w, nil
	default:
	}
	// Slow path: join the bounded wait queue.
	if p.waiters.Add(1) > p.maxQueue {
		p.waiters.Add(-1)
		p.gauges.Rejections.Add(1)
		return nil, ErrQueueFull
	}
	p.gauges.QueueDepth.Store(p.waiters.Load())
	defer func() {
		p.waiters.Add(-1)
		p.gauges.QueueDepth.Store(p.waiters.Load())
	}()
	select {
	case w := <-p.workers:
		p.admit(w)
		return w, nil
	case <-ctx.Done():
		p.gauges.Timeouts.Add(1)
		return nil, ctx.Err()
	}
}

func (p *Pool) admit(w *Worker) {
	p.gauges.Admissions.Add(1)
	p.gauges.Active.Add(1)
	// The worker's idle retention is about to be churned by a new sort;
	// take it off the gauges until Release re-measures it.
	p.mu.Lock()
	p.byTenant[w.lastTenant] -= w.retained
	if p.byTenant[w.lastTenant] <= 0 {
		delete(p.byTenant, w.lastTenant)
	}
	p.mu.Unlock()
	p.gauges.RetainedBytes.Add(-w.retained)
	w.retained = 0
}

// Release returns w to the pool. If discard is set (the handler panicked,
// or the caller otherwise suspects the workspace), every retained buffer
// is dropped first, so a damaged or bloated workspace re-enters the pool
// at its zero footprint — the pool itself is never poisoned. tenant is
// the tenant the request ran for; the sort's MaxRetainedBytes share
// already bounded the sorter's scratch, and Release keeps the request
// buffers only while the sum stays within that share, dropping the
// decoded input first and the wire chunk second. The residual retention
// is attributed to the tenant until the next request on this worker.
func (p *Pool) Release(w *Worker, tenant string, discard bool) {
	if discard {
		w.sorter.Release()
		w.in, w.wire = nil, nil
		p.gauges.Discards.Add(1)
	}
	w.lastTenant = tenant
	w.retained = w.sorter.RetainedBytes()
	if share := p.workerBudget(tenant); share > 0 {
		if w.retained+w.bufferBytes() > share {
			w.in = nil
		}
		if w.retained+w.bufferBytes() > share {
			w.wire = nil
		}
	}
	w.retained += w.bufferBytes()
	p.mu.Lock()
	p.byTenant[tenant] += w.retained
	p.mu.Unlock()
	p.gauges.RetainedBytes.Add(w.retained)
	p.gauges.Active.Add(-1)
	p.workers <- w
}

// TenantRetained returns a copy of the idle scratch currently attributed
// to each tenant. Workers checked out at snapshot time are not counted
// (their retention is in flux); the per-worker budget shares still bound
// every tenant's total at its budget.
func (p *Pool) TenantRetained() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.byTenant))
	for t, b := range p.byTenant {
		if b > 0 {
			out[t] = b
		}
	}
	return out
}
