package service

import (
	"container/list"
	"sync"

	"spcg/internal/eig"
	"spcg/internal/precond"
	"spcg/internal/sparse"
)

// setupKey identifies the expensive per-matrix setup state: the matrix
// content (by fingerprint) and the canonical preconditioner spec. The
// spectral estimate of M⁻¹A is stored on the same entry because it depends
// on exactly these inputs.
type setupKey struct {
	fp   uint64
	prec string
}

// setupEntry holds (lazily built) reusable solver setup for one key. The
// entry-level mutex serializes construction so that concurrent first
// requests build the preconditioner once; after construction the stored
// values are immutable and shared freely (see the precond package's
// concurrency contract).
type setupEntry struct {
	mu       sync.Mutex
	prec     precond.Interface
	precErr  error
	spectrum *eig.Estimate
	specErr  error
}

// preconditioner returns the entry's preconditioner, building it on first use.
// Spec parsing and construction live in precond.Parse / precond.Spec.Build so
// the autotuner and experiment harness share the exact same semantics.
func (e *setupEntry) preconditioner(a *sparse.CSR, spec precond.Spec) (precond.Interface, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prec != nil || e.precErr != nil {
		return e.prec, e.precErr
	}
	e.prec, e.precErr = spec.Build(a)
	return e.prec, e.precErr
}

// spectrumFor returns the Ritz estimate of M⁻¹A for the entry's
// preconditioner, computing it once (the paper's "a few iterations of
// standard PCG" setup step, here amortized across all requests that hit the
// entry).
func (e *setupEntry) spectrumFor(a *sparse.CSR, spec precond.Spec, s int) (*eig.Estimate, error) {
	m, err := e.preconditioner(a, spec)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.spectrum != nil || e.specErr != nil {
		return e.spectrum, e.specErr
	}
	iters := 2 * s
	if iters < 20 {
		iters = 20
	}
	var applyM func(dst, src []float64)
	if m != nil {
		applyM = m.Apply
	}
	e.spectrum, e.specErr = eig.RitzFromPCG(a, applyM, eig.Options{Iterations: iters})
	return e.spectrum, e.specErr
}

// setupCache is the LRU cache of setupEntries. A get that finds the key
// counts as a hit even if the entry is still being built by another
// goroutine — the expensive work is shared either way.
type setupCache struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // front = most recently used; values are *cacheItem
	items  map[setupKey]*list.Element
	hits   int64
	misses int64
}

type cacheItem struct {
	key   setupKey
	entry *setupEntry
}

func newSetupCache(max int) *setupCache {
	if max < 1 {
		max = 1
	}
	return &setupCache{max: max, ll: list.New(), items: map[setupKey]*list.Element{}}
}

// get returns the entry for key, creating (and possibly evicting) as needed.
// The boolean reports whether this was a cache hit.
func (c *setupCache) get(key setupKey) (*setupEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheItem).entry, true
	}
	c.misses++
	entry := &setupEntry{}
	el := c.ll.PushFront(&cacheItem{key: key, entry: entry})
	c.items[key] = el
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheItem).key)
	}
	return entry, false
}

func (c *setupCache) stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len()
}
