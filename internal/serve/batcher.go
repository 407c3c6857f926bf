// Package serve is the online inference serving layer: it turns the
// batched execution engine (exec.Engine.RunBatch) into a throughput
// system for concurrent clients. The paper's deployment story (§4)
// ends with a PBQP-optimized plan solved once per device;
// this package is what runs that plan under load. Its pieces:
//
//   - Batcher: a dynamic batcher that collects in-flight requests and
//     flushes a minibatch to the engine when it reaches MaxBatch or the
//     oldest request has waited MaxWait, whichever comes first —
//     independent requests share one compiled-program dispatch.
//   - Admission control: a bounded queue that rejects immediately when
//     full (fast 429s beat slow timeouts), per-request deadlines pruned
//     before dispatch, and a graceful drain on shutdown.
//   - Registry: hosts multiple named networks, each selected and
//     compiled exactly once at startup and shared by all workers.
//   - Metrics: queue depth, batch-size histogram, windowed latency
//     percentiles, throughput — published as JSON and expvar.
//
// The HTTP front end over all of this lives in NewServer and is wired
// up by cmd/dnnserver. The open-loop load generator that measures it
// lives in the benchmark module (benchmark/), not here.
package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"pbqpdnn/internal/tensor"
)

var (
	// ErrQueueFull is returned by Infer when the admission queue is at
	// capacity. It is intentionally immediate: under overload the
	// cheapest thing to do with work that cannot be served in time is
	// to say so now (HTTP maps it to 429).
	ErrQueueFull = errors.New("serve: admission queue full")

	// ErrClosed is returned by Infer after Close has begun: the batcher
	// drains what it admitted, but admits nothing new.
	ErrClosed = errors.New("serve: batcher closed")
)

// BatchOptions tunes a Batcher. The zero value is usable: it becomes
// {MaxBatch: 8, MaxWait: 2ms, QueueCap: 4*MaxBatch, MaxInFlight: 1}.
type BatchOptions struct {
	// MaxBatch flushes a minibatch as soon as this many requests are
	// pending. It should not exceed what the engine's memory plan can
	// hold comfortably: each image checks a slot frame out of the arena.
	MaxBatch int

	// MaxWait flushes whatever has accumulated once the *first* request
	// of the forming batch has waited this long. It is the knob trading
	// tail latency (small MaxWait) against batch amortization (large).
	MaxWait time.Duration

	// QueueCap bounds the admission queue; Infer rejects with
	// ErrQueueFull beyond it. Backpressure, not buffering: the queue
	// only needs to cover the batches the dispatcher is behind by.
	QueueCap int

	// MaxInFlight bounds concurrent RunBatch dispatches. 1 serializes
	// the engine (best on machines where one batch already saturates
	// the cores); >1 overlaps the next batch's collection with the
	// current batch's execution on bigger hosts.
	MaxInFlight int
}

func (o *BatchOptions) defaults() {
	if o.MaxBatch < 1 {
		o.MaxBatch = 8
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.QueueCap < 1 {
		o.QueueCap = 4 * o.MaxBatch
	}
	if o.MaxInFlight < 1 {
		o.MaxInFlight = 1
	}
}

// RunBatchFunc is the engine-facing contract: execute one minibatch,
// returning one output per input in order. exec.Engine.RunBatch
// satisfies it; tests substitute fakes with controlled timing.
type RunBatchFunc func(inputs []*tensor.Tensor) ([]*tensor.Tensor, error)

// request is one queued inference: the input, the submitting context
// (whose deadline is honored up to dispatch), and the reply channel.
// enq stamps admission; deq stamps the collector pulling the request
// out of the queue — the boundary between the queue-wait and
// batch-assembly lifecycle phases.
type request struct {
	in  *tensor.Tensor
	ctx context.Context
	enq time.Time
	deq time.Time
	out chan result
}

type result struct {
	t   *tensor.Tensor
	err error
}

// Batcher collects concurrent Infer calls into minibatches for one
// engine. All methods are safe for concurrent use.
type Batcher struct {
	run  RunBatchFunc
	opts BatchOptions
	met  *Metrics

	queue chan *request
	quit  chan struct{} // closed by Close: stop collecting, start draining

	mu     sync.Mutex // guards closed and the closed-vs-enqueue race
	closed bool

	collectorDone chan struct{}
	dispatches    sync.WaitGroup
	sem           chan struct{} // MaxInFlight tokens
}

// NewBatcher starts a batcher over the given batch runner. The caller
// owns met (pass NewMetrics(); a nil met panics early rather than deep
// in the hot path). Close releases the collector goroutine.
func NewBatcher(run RunBatchFunc, opts BatchOptions, met *Metrics) *Batcher {
	opts.defaults()
	b := &Batcher{
		run:           run,
		opts:          opts,
		met:           met,
		queue:         make(chan *request, opts.QueueCap),
		quit:          make(chan struct{}),
		collectorDone: make(chan struct{}),
		sem:           make(chan struct{}, opts.MaxInFlight),
	}
	met.mu.Lock()
	met.queueDepth = func() int { return len(b.queue) }
	met.mu.Unlock()
	go b.collect()
	return b
}

// Infer submits one input and blocks until its minibatch completes, the
// context expires, or admission fails. The input must match the model's
// input shape (the engine validates); the returned tensor is
// caller-owned and never aliases engine or input storage.
func (b *Batcher) Infer(ctx context.Context, in *tensor.Tensor) (*tensor.Tensor, error) {
	r := &request{in: in, ctx: ctx, enq: time.Now(), out: make(chan result, 1)}

	// Admission happens under the lock so no request can slip into the
	// queue after Close has decided the drain is complete.
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	select {
	case b.queue <- r:
		b.mu.Unlock()
		b.met.admit()
	default:
		b.mu.Unlock()
		b.met.reject()
		return nil, ErrQueueFull
	}

	select {
	case res := <-r.out:
		return res.t, res.err
	case <-ctx.Done():
		// The request stays queued; the collector prunes it at flush
		// time (r.out is buffered, so the late reply never blocks).
		return nil, ctx.Err()
	}
}

// Close stops admission, drains every already-admitted request through
// the engine, waits for in-flight batches, and returns. Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	already := b.closed
	b.closed = true
	b.mu.Unlock()
	if !already {
		close(b.quit)
	}
	<-b.collectorDone
	b.dispatches.Wait()
}

// collect is the batcher's single collector goroutine: form batches,
// hand them to dispatch, and on quit drain the queue into final batches
// (admission has already stopped, so the drain terminates).
func (b *Batcher) collect() {
	defer close(b.collectorDone)
	for {
		select {
		case first := <-b.queue:
			first.deq = time.Now()
			b.dispatch(b.fill(first, false))
		case <-b.quit:
			for {
				select {
				case first := <-b.queue:
					first.deq = time.Now()
					b.dispatch(b.fill(first, true))
				default:
					return
				}
			}
		}
	}
}

// fill grows a batch seeded with first until MaxBatch, MaxWait (clocked
// from the seed request's *enqueue*, so time the seed already spent
// queued behind a busy engine counts against the wait budget), or
// shutdown. When draining — or when the seed's budget is already
// spent — it takes only what is immediately available.
func (b *Batcher) fill(first *request, draining bool) []*request {
	batch := make([]*request, 1, b.opts.MaxBatch)
	batch[0] = first
	wait := b.opts.MaxWait - time.Since(first.enq)
	if draining || wait <= 0 {
		for len(batch) < b.opts.MaxBatch {
			select {
			case r := <-b.queue:
				r.deq = time.Now()
				batch = append(batch, r)
			default:
				return batch
			}
		}
		return batch
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for len(batch) < b.opts.MaxBatch {
		select {
		case r := <-b.queue:
			r.deq = time.Now()
			batch = append(batch, r)
		case <-timer.C:
			return batch
		case <-b.quit:
			// Flush what we have; the drain loop picks up the rest.
			return batch
		}
	}
	return batch
}

// dispatch prunes requests whose deadline passed while they queued,
// then runs the survivors as one engine minibatch. The MaxInFlight
// semaphore is acquired on the collector goroutine, so a backed-up
// engine stalls collection and surfaces as queue growth → rejection:
// overload sheds load at admission instead of accumulating latency.
func (b *Batcher) dispatch(batch []*request) {
	live := batch[:0]
	expired := 0
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			r.out <- result{err: err}
			expired++
			continue
		}
		live = append(live, r)
	}
	if expired > 0 {
		b.met.expire(expired)
	}
	if len(live) == 0 {
		return
	}

	b.sem <- struct{}{}
	b.dispatches.Add(1)
	go func() {
		defer func() {
			<-b.sem
			b.dispatches.Done()
		}()
		ins := make([]*tensor.Tensor, len(live))
		for i, r := range live {
			ins[i] = r.in
		}
		start := time.Now()
		outs, err := b.run(ins)
		now := time.Now()
		engine := now.Sub(start)
		// Per-request lifecycle phases: enq→deq queued behind the
		// collector, deq→dispatch assembling the batch, then the shared
		// engine wall time. The respond phase closes after fan-out.
		for _, r := range live {
			b.met.phases[phaseQueueWait].Observe(r.deq.Sub(r.enq))
			b.met.phases[phaseAssembly].Observe(start.Sub(r.deq))
			b.met.phases[phaseEngine].Observe(engine)
		}
		if err != nil {
			b.met.observeBatch(len(live), engine, nil, err)
			for _, r := range live {
				r.out <- result{err: err}
			}
			respond := time.Since(now)
			for range live {
				b.met.phases[phaseRespond].Observe(respond)
			}
			return
		}
		// Record metrics before unblocking callers: a caller that reads
		// /stats right after its reply must see itself served.
		lats := make([]time.Duration, len(live))
		for i, r := range live {
			lats[i] = now.Sub(r.enq)
		}
		b.met.observeBatch(len(live), engine, lats, nil)
		for i, r := range live {
			r.out <- result{t: outs[i]}
		}
		respond := time.Since(now)
		for range live {
			b.met.phases[phaseRespond].Observe(respond)
		}
	}()
}
