package service

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"spcg/internal/sparse"
	"spcg/internal/suite"
	"spcg/internal/tune"
)

// registry resolves matrix names to built CSR matrices. Two name families
// are served:
//
//   - the 40 suite problems (by SuiteSparse name, e.g. "apache2"), built at
//     1/Scale of the paper size on first request;
//   - parametric generators in sparse.ParseMatrixSpec's grammar
//     ("poisson2d:64", "varcoeff2d:48:2:1", "hubgraph:8192:3", ...).
//
// A backend keeps a matrix only if it serves solves on it: get (solve, tune)
// builds the matrix once and keeps it, immutable, so every solve and every
// cache entry shares the same *CSR; resolve (the gateway's affinity lookup)
// builds it only to fingerprint it and keeps the (fingerprint, n) pair.
// Entries are never evicted: an entry holds the per-matrix state no client
// chooses and that is O(1) or paid once per matrix — the matrix, its
// fingerprint, its Ritz estimates (tune.Spectra, a handful of floats per
// preconditioner) and its storage state (format.go). Only the O(n)/O(nnz)
// state keyed by something a client picks — the preconditioner — lives in
// the bounded setup cache, whose entries point at the owner's Spectra.
type registry struct {
	scale int
	mu    sync.Mutex
	byKey map[string]*matrixEntry
	// byFP finds the entry that owns a built matrix's per-matrix state. Two
	// names that generate the same content share the first one's.
	byFP map[uint64]*matrixEntry
	// built and bytes count the matrices get keeps and their storage (CSR
	// plus SELL conversions): the spcgd_registry_* gauges.
	built int
	bytes int64
}

// matrixEntry is one lazily built matrix.
type matrixEntry struct {
	Name  string
	build func() *sparse.CSR

	mu       sync.Mutex // serializes this entry's builds
	a        *sparse.CSR
	resolved bool // fp and n are known
	fp       uint64
	n        int

	// spectra memoizes the matrix's Ritz estimates; every setup-cache entry
	// of the fingerprint points at the owner's.
	spectra tune.Spectra

	// Storage state, filled by Server.storage.
	fmu    sync.Mutex
	choice string // the format selector's pick; "" until it has run
	sell   *sparse.SELL
}

// maxMatrixDim rejects generator requests beyond this dimension.
const maxMatrixDim = 1 << 22

// tooLarge is the rejection of matrix name, of dimension n > maxMatrixDim.
func tooLarge(name string, n int) error {
	return fmt.Errorf("%w: matrix %s has n=%d > limit %d", ErrLimitExceeded, name, n, maxMatrixDim)
}

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

// entry returns name's entry, registering a parametric generator entry on
// first use.
func (r *registry) entry(name string) (*matrixEntry, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return nil, fmt.Errorf("empty matrix name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[name]; ok {
		return e, nil
	}
	build, dim, err := sparse.ParseMatrixSpec(name)
	if err != nil {
		return nil, err
	}
	// Bound the dimension BEFORE building: a hostile generator spec must not
	// allocate the matrix it is about to be rejected for.
	if dim > maxMatrixDim {
		return nil, tooLarge(name, dim)
	}
	e := &matrixEntry{Name: name, build: build}
	r.byKey[name] = e
	return e, nil
}

// get resolves name to its built matrix and fingerprint, building it on
// first use and keeping it: the path of everything that solves on it.
func (r *registry) get(name string) (*sparse.CSR, uint64, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, 0, err
	}
	e.mu.Lock()
	if e.a == nil {
		e.a = e.build()
		e.fp, e.n, e.resolved = e.a.Fingerprint(), e.a.N, true
		r.mu.Lock()
		if r.byFP[e.fp] == nil {
			r.byFP[e.fp] = e
		}
		r.built++
		r.bytes += e.a.Bytes()
		r.mu.Unlock()
	}
	a, fp := e.a, e.fp
	e.mu.Unlock()
	if a.Dim() > maxMatrixDim {
		return nil, 0, tooLarge(e.Name, a.Dim())
	}
	return a, fp, nil
}

// resolve returns name's fingerprint and dimension without keeping the
// matrix: the first call builds it only to fingerprint it (unless get
// already holds it), repeats read the entry. The gateway routes solves by
// fingerprint, so the backend that answers a lookup is often not the one
// that will solve on the matrix.
func (r *registry) resolve(name string) (fp uint64, n int, err error) {
	e, err := r.entry(name)
	if err != nil {
		return 0, 0, err
	}
	e.mu.Lock()
	if !e.resolved {
		a := e.build()
		e.fp, e.n, e.resolved = a.Fingerprint(), a.N, true
	}
	fp, n = e.fp, e.n
	e.mu.Unlock()
	if n > maxMatrixDim {
		return 0, 0, tooLarge(e.Name, n)
	}
	return fp, n, nil
}

// charge adds a storage conversion's bytes to the residency count.
func (r *registry) charge(bytes int64) {
	r.mu.Lock()
	r.bytes += bytes
	r.mu.Unlock()
}

// residency reports the matrices get has built and their bytes.
func (r *registry) residency() (matrices int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.built, r.bytes
}

// owner returns the entry holding the per-matrix state (Ritz estimates,
// storage) of the built matrix with fingerprint fp. Every fingerprint passed
// here came out of get, so a nil return is a bug.
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
		return tooLarge(name, dim)
	}
	return nil
}
