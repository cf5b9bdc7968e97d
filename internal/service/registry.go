package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"spcg/internal/sparse"
	"spcg/internal/suite"
)

// registry resolves matrix names to built CSR matrices. Two name families
// are served:
//
//   - the 40 suite problems (by SuiteSparse name, e.g. "apache2"), built at
//     1/Scale of the paper size on first request;
//   - parametric generators in sparse.ParseMatrixSpec's grammar
//     ("poisson2d:64", "varcoeff2d:48:2:1", "hubgraph:8192:3", ...).
//
// Matrices are built once (per-entry sync.Once) and are immutable
// afterwards, so every solve and every cache entry shares the same *CSR.
// Entries are never evicted: an entry holds everything the process knows
// about its matrix that no client chooses — the matrix, its fingerprint and
// its storage state (format.go). Only state that is large and keyed by
// something a client picks (preconditioner, spectrum) lives in the bounded
// setup cache.
type registry struct {
	scale int
	mu    sync.Mutex
	byKey map[string]*matrixEntry
	// byFP finds the entry that owns a built matrix's storage state. Two
	// names that generate the same content share the first one's.
	byFP map[uint64]*matrixEntry
}

// matrixEntry is one lazily built matrix.
type matrixEntry struct {
	Name  string
	build func() *sparse.CSR
	once  sync.Once
	a     *sparse.CSR
	fp    uint64

	// Storage state, filled by Server.storage.
	fmu    sync.Mutex
	choice string // the format selector's pick; "" until it has run
	sell   *sparse.SELL
}

// maxMatrixDim rejects generator requests beyond this dimension.
const maxMatrixDim = 1 << 22

func newRegistry(scale int) *registry {
	if scale < 1 {
		scale = 1
	}
	r := &registry{scale: scale, byKey: map[string]*matrixEntry{}, byFP: map[uint64]*matrixEntry{}}
	for _, p := range suite.All() {
		p := p
		r.byKey[p.Name] = &matrixEntry{
			Name:  p.Name,
			build: func() *sparse.CSR { return p.Build(scale) },
		}
	}
	return r
}

// names lists all registered (built or not) matrix names, sorted.
func (r *registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.byKey))
	for k := range r.byKey {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// get resolves name, registering a parametric generator entry on first use.
func (r *registry) get(name string) (*sparse.CSR, uint64, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return nil, 0, fmt.Errorf("empty matrix name")
	}
	r.mu.Lock()
	e, ok := r.byKey[name]
	if !ok {
		build, dim, err := sparse.ParseMatrixSpec(name)
		if err != nil {
			r.mu.Unlock()
			return nil, 0, err
		}
		// Bound the dimension BEFORE building: a hostile generator spec must
		// not allocate the matrix it is about to be rejected for.
		if dim > maxMatrixDim {
			r.mu.Unlock()
			return nil, 0, fmt.Errorf("%w: matrix %s has n=%d > limit %d", ErrLimitExceeded, name, dim, maxMatrixDim)
		}
		e = &matrixEntry{Name: name, build: build}
		r.byKey[name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		e.a = e.build()
		e.fp = e.a.Fingerprint()
		r.mu.Lock()
		if r.byFP[e.fp] == nil {
			r.byFP[e.fp] = e
		}
		r.mu.Unlock()
	})
	if e.a.Dim() > maxMatrixDim {
		return nil, 0, fmt.Errorf("%w: matrix %s has n=%d > limit %d", ErrLimitExceeded, name, e.a.Dim(), maxMatrixDim)
	}
	return e.a, e.fp, nil
}

// owner returns the entry holding the storage state of the built matrix with
// fingerprint fp. Every fingerprint in the process came out of get, so a nil
// return is a bug.
func (r *registry) owner(fp uint64) *matrixEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byFP[fp]
}

// sizeCheck rejects a parametric generator spec whose dimension would exceed
// the limit, without building anything. Suite names pass (their scaled sizes
// are bounded by construction) and unknown specs pass too: the lazy
// resolution at solve time keeps its failure semantics for async clients.
func (r *registry) sizeCheck(name string) error {
	name = strings.TrimSpace(name)
	r.mu.Lock()
	_, known := r.byKey[name]
	r.mu.Unlock()
	if known {
		return nil
	}
	_, dim, err := sparse.ParseMatrixSpec(name)
	if err != nil {
		return nil
	}
	if dim > maxMatrixDim {
		return fmt.Errorf("%w: matrix %s has n=%d > limit %d", ErrLimitExceeded, name, dim, maxMatrixDim)
	}
	return nil
}
