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
// Entries are keyed by suite.Key, the key the gateway routes by, so every
// spelling of one spec ("poisson2d:16", "POISSON2D:016:16") shares one entry
// and one build. A backend keeps a matrix only while it serves solves on it:
// get (solve, tune) builds the matrix and keeps it, immutable, so every
// solve and every cache entry shares the same *CSR, until the setup cache
// evicts the last set-up on its fingerprint; release then drops the CSR and
// its SELL conversion, and the next get rebuilds them. resolve (GET /tune)
// builds a matrix only to fingerprint it and keeps the fingerprint. Entries
// themselves are never evicted: an entry keeps the per-matrix state no
// client chooses that is O(1) or paid once per matrix — its fingerprint, its
// Ritz estimates (tune.Spectra, a handful of floats per preconditioner) and
// the format selector's choice (format.go). The O(n)/O(nnz) state — the
// matrix, its SELL conversion and the preconditioners in the setup cache,
// whose entries point at the owner's Spectra — is bounded by
// Config.CacheSize.
type registry struct {
	mu    sync.Mutex
	byKey map[string]*matrixEntry
	// byFP finds the entry that owns a built matrix's per-matrix state. Two
	// names that generate the same content share the first one's.
	byFP map[uint64]*matrixEntry
	// held lists, by fingerprint, the entries that hold a built matrix:
	// release drops each of them.
	held map[uint64][]*matrixEntry
	// built and bytes count the matrices held and their storage (CSR plus
	// SELL conversions): the spcgd_registry_* gauges.
	built int
	bytes int64
}

// matrixEntry is one lazily built matrix.
type matrixEntry struct {
	Name  string
	build func() *sparse.CSR

	mu       sync.Mutex // serializes this entry's builds and releases
	a        *sparse.CSR
	resolved bool // fp is known
	fp       uint64

	// spectra memoizes the matrix's Ritz estimates; every setup-cache entry
	// of the fingerprint points at the owner's.
	spectra tune.Spectra

	// Storage state, filled by Server.storage. The choice outlives a
	// release; the conversion does not.
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
	r := &registry{byKey: map[string]*matrixEntry{}, byFP: map[uint64]*matrixEntry{}, held: map[uint64][]*matrixEntry{}}
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

// entry returns the entry of name's key, registering a parametric generator
// entry on first use. A name that is a key already finds its entry without
// a parse.
func (r *registry) entry(name string) (*matrixEntry, error) {
	name = strings.TrimSpace(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[name]; ok {
		return e, nil
	}
	// Every suite name is registered, so name is a generator spec or nothing.
	build, dim, key, err := sparse.ParseMatrixSpec(name)
	if err != nil {
		return nil, err
	}
	if e, ok := r.byKey[key]; ok {
		return e, nil
	}
	// Bound the dimension BEFORE building: a hostile generator spec must not
	// allocate the matrix it is about to be rejected for.
	if dim > maxMatrixDim {
		return nil, tooLarge(name, dim)
	}
	e := &matrixEntry{Name: key, build: build}
	r.byKey[key] = e
	return e, nil
}

// get resolves name to its built matrix and fingerprint, building it when
// the entry holds none and keeping it until release: the path of everything
// that solves on it. Builds are deterministic, so a rebuild after a release
// keeps the fingerprint the entry already has.
func (r *registry) get(name string) (*sparse.CSR, uint64, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, 0, err
	}
	e.mu.Lock()
	if e.a == nil {
		e.a = e.build()
		if !e.resolved {
			e.fp, e.resolved = e.a.Fingerprint(), true
		}
		r.mu.Lock()
		if r.byFP[e.fp] == nil {
			r.byFP[e.fp] = e
		}
		r.held[e.fp] = append(r.held[e.fp], e)
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

// release drops the built matrices of fingerprint fp, which came out of
// get, and the owner's SELL conversion, and takes their bytes off the
// gauges; the entries keep their O(1) state. The setup cache calls it when
// it evicts the last set-up on fp. A solve that got the matrix before the
// release keeps its own reference until it ends.
func (r *registry) release(fp uint64) {
	r.mu.Lock()
	held, owner := r.held[fp], r.byFP[fp]
	delete(r.held, fp)
	r.mu.Unlock()
	for _, e := range held {
		e.mu.Lock()
		if e.a != nil {
			r.mu.Lock()
			r.built--
			r.bytes -= e.a.Bytes()
			r.mu.Unlock()
			e.a = nil
		}
		e.mu.Unlock()
	}
	owner.fmu.Lock()
	if owner.sell != nil {
		r.charge(-owner.sell.Bytes())
		owner.sell = nil
	}
	owner.fmu.Unlock()
}

// resolve returns name's fingerprint without keeping the matrix: the first
// call builds it only to fingerprint it (unless get already holds it),
// repeats read the entry. GET /tune needs only the tune store's key, and a
// restarted backend may hold a stored decision for a matrix it has not
// built.
func (r *registry) resolve(name string) (uint64, error) {
	e, err := r.entry(name)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.resolved {
		e.fp, e.resolved = e.build().Fingerprint(), true
	}
	return e.fp, nil
}

// charge adds a storage conversion's bytes to the residency count (a
// negative count takes a dropped one off).
func (r *registry) charge(bytes int64) {
	r.mu.Lock()
	r.bytes += bytes
	r.mu.Unlock()
}

// residency reports the matrices held and their bytes.
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
// the limit, without building anything. Suite names pass (they are no spec,
// and their scaled sizes are bounded by construction) and unknown specs pass
// too: the lazy resolution at solve time keeps its failure semantics for
// async clients.
func (r *registry) sizeCheck(name string) error {
	name = strings.TrimSpace(name)
	_, dim, _, err := sparse.ParseMatrixSpec(name)
	if err == nil && dim > maxMatrixDim {
		return tooLarge(name, dim)
	}
	return nil
}
