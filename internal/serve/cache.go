package serve

import (
	"container/list"
	"slices"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// cacheKey addresses one compiled pipeline: the content digest of the
// canonical model JSON plus the scheduling parameters. Everything derived
// from the same (model, M, heuristic) triple — validated network, task
// graph, static schedule, compiled plan, free run states, per-frame
// input tables — hangs off the one Entry stored under this key.
type cacheKey struct {
	digest    string
	m         int
	heuristic string
}

// Entry is one cached compile pipeline. The artifacts (TG, Schedule, Plan)
// are immutable after compile — plan immutability is enforced repo-wide by
// the planfreeze analyzer — so one Entry safely serves any number of
// concurrent requests; all per-run mutable state lives in the RunStates
// of its free lists.
type Entry struct {
	// Model is the canonicalized, digested source model.
	Model *cli.Model
	// TG is the derived task graph.
	TG *taskgraph.TaskGraph
	// Schedule is the static schedule on M processors.
	Schedule *sched.Schedule
	// Plan is the compiled execution plan.
	Plan *plan.Plan
	// Feasible records Schedule.Validate() == nil at compile time.
	Feasible bool
	// CompileTime is the wall time of the full parse-to-plan pipeline.
	CompileTime time.Duration

	cost    int64
	metrics *Metrics

	// mu guards the fields below. free holds the idle RunStates, oldest
	// first, each with the frame count it last ran: a request takes the
	// newest state of its own frame count, so a recycled state's arena
	// sizes match its next run and states never ping-pong between frame
	// counts. inFlight counts the states checked out and peak is its
	// high-water mark. The entry keeps at most peak states, parked plus in
	// flight, across all frame counts: a request that finds no state of its
	// frame count drops the oldest parked state once the bound is reached,
	// before it creates its own. A client stepping through frame counts
	// thus holds one state, not one per count. The states' memory goes when
	// the LRU evicts the entry. Unlike a sync.Pool, the list never drops
	// states across GCs: reuse is deterministic.
	mu       sync.Mutex
	free     []idleState
	inFlight int
	peak     int
	inputs   map[int]map[string][]core.Value
}

// idleState is one parked RunState and the frame count it last ran.
type idleState struct {
	frames int
	rs     *plan.RunState
}

// entryBaseCost approximates the fixed footprint of a cached pipeline and
// entryJobCost the per-job footprint of the task graph + plan tables; the
// LRU evicts by the sum, so one 100k-job scale entry weighs as much as
// ~100 small app entries.
const (
	entryBaseCost = int64(1) << 16
	entryJobCost  = int64(512)
)

// AcquireState checks a RunState for the given frame count out of the
// entry's free list, creating one when no state of that frame count is
// parked. Warm states carry their arenas from previous runs, so
// steady-state requests replay on the zero-alloc path.
func (e *Entry) AcquireState(frames int) *plan.RunState {
	e.mu.Lock()
	e.inFlight++
	e.peak = max(e.peak, e.inFlight)
	var rs *plan.RunState
	for i := len(e.free) - 1; i >= 0; i-- {
		if e.free[i].frames == frames {
			rs = e.free[i].rs
			e.free = slices.Delete(e.free, i, i+1)
			break
		}
	}
	if rs == nil && len(e.free) > 0 && len(e.free)+e.inFlight > e.peak {
		e.free = slices.Delete(e.free, 0, 1)
	}
	e.mu.Unlock()
	if rs == nil {
		e.metrics.StatesCreated.Add(1)
		rs = e.Plan.NewRunState()
	}
	rs.Acquire()
	return rs
}

// ReleaseState parks a state acquired for the given frame count. The
// hand-back is idempotent: under the entry's lock, a state already marked
// Released is not parked again, so a double release cannot hand the same
// state to two concurrent requests. Callers must not touch the run's
// *Report after this point — it aliases the state's arenas.
func (e *Entry) ReleaseState(frames int, rs *plan.RunState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rs.Released() {
		return
	}
	e.inFlight--
	e.free = append(e.free, idleState{frames: frames, rs: rs})
	rs.Release()
}

// InputsFor returns the model's deterministic external-input samples for a
// run of the given frame count, built once per frame count and shared by
// every request: the data machine reads input slices without mutating
// them, so one table serves concurrent runs.
func (e *Entry) InputsFor(frames int) map[string][]core.Value {
	e.mu.Lock()
	defer e.mu.Unlock()
	if in, ok := e.inputs[frames]; ok {
		return in
	}
	in := e.Model.Inputs(frames)
	e.inputs[frames] = in
	return in
}

// flight is one in-progress compile that concurrent misses for the same
// key wait on instead of compiling again.
type flight struct {
	done  chan struct{}
	entry *Entry
	err   error
}

// Cache is the content-addressed compile cache: a cost-aware LRU with
// singleflight on misses. Safe for concurrent use.
type Cache struct {
	budget  int64
	metrics *Metrics

	mu       sync.Mutex
	entries  map[cacheKey]*list.Element
	lru      *list.List // front = most recently used; elements hold *cacheItem
	used     int64
	inflight map[cacheKey]*flight
}

type cacheItem struct {
	key   cacheKey
	entry *Entry
}

func newCache(budget int64, metrics *Metrics) *Cache {
	return &Cache{
		budget:   budget,
		metrics:  metrics,
		entries:  make(map[cacheKey]*list.Element),
		lru:      list.New(),
		inflight: make(map[cacheKey]*flight),
	}
}

// GetOrCompile returns the entry for key, compiling it at most once no
// matter how many requests miss concurrently: the first miss runs compile,
// every other waits on the same flight and shares its result (or error).
// hit reports whether the entry came straight from the LRU.
func (c *Cache) GetOrCompile(key cacheKey, compile func() (*Entry, error)) (e *Entry, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.metrics.Hits.Add(1)
		e = el.Value.(*cacheItem).entry
		c.mu.Unlock()
		return e, true, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.metrics.Coalesced.Add(1)
		c.mu.Unlock()
		<-fl.done
		return fl.entry, false, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.metrics.Misses.Add(1)
	c.mu.Unlock()

	fl.entry, fl.err = compile()

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.insertLocked(key, fl.entry)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.entry, false, fl.err
}

// insertLocked adds a freshly compiled entry and evicts from the LRU tail
// until the cost budget holds again. The newest entry itself is never
// evicted — a model bigger than the whole budget still serves, it just
// won't share the cache with anyone.
func (c *Cache) insertLocked(key cacheKey, e *Entry) {
	el := c.lru.PushFront(&cacheItem{key: key, entry: e})
	c.entries[key] = el
	c.used += e.cost
	for c.used > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		item := back.Value.(*cacheItem)
		c.lru.Remove(back)
		delete(c.entries, item.key)
		c.used -= item.entry.cost
		c.metrics.Evictions.Add(1)
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Used returns the summed cost of the cached entries.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
