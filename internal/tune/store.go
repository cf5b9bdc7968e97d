package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// StoreVersion is the on-disk schema version. A file with a different
// version is rejected at Open (the caller decides whether to start fresh).
const StoreVersion = 1

// FpString renders a matrix fingerprint the way the store keys it:
// zero-padded lowercase hex, stable across refactors (pinned by the
// fingerprint golden test in internal/sparse).
func FpString(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// RankedCandidate is one surviving configuration with its final trial score.
type RankedCandidate struct {
	Candidate Candidate `json:"candidate"`
	// Score is milliseconds per decade of residual reduction at the last
	// round the candidate ran (lower is better).
	Score float64 `json:"score"`
}

// Decision is one tuned verdict for one matrix: the winner, the ranked
// fallback list (the serving layer walks it when a circuit breaker denies
// the winner), and the full trial history for auditability.
type Decision struct {
	// Fingerprint is FpString(sparse.CSR.Fingerprint()).
	Fingerprint string `json:"fingerprint"`
	// Matrix is the registry name the decision was tuned under (advisory;
	// the fingerprint is the key).
	Matrix string    `json:"matrix,omitempty"`
	Winner Candidate `json:"winner"`
	// Ranked lists surviving candidates best-first; Ranked[0] == Winner.
	Ranked []RankedCandidate `json:"ranked"`
	Trials []Trial           `json:"trials,omitempty"`
	// Cond is the κ estimate from the seeding probe.
	Cond float64 `json:"cond,omitempty"`
	// Source is how the decision was produced: "tuned" (trials ran) or
	// "seeded" (model-only guess while background trials run).
	Source      string `json:"source"`
	CreatedUnix int64  `json:"created_unix"`
	// LastUsedUnix is when the decision was last stored or served: the
	// store's recency order as the file keeps it, refreshed by Store.Get.
	LastUsedUnix int64 `json:"last_used_unix"`
}

// storeFile is the on-disk document.
type storeFile struct {
	Version int         `json:"version"`
	Entries []*Decision `json:"entries"`
}

// Store is the LRU-bounded, disk-backed decision store. A Store with an
// empty path is memory-only (used by tests and daemons run without
// -tune-store). All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	path    string
	max     int
	entries map[string]*entry
	clock   uint64 // the last recency tick handed out
}

// entry is the store's own copy of a decision, which no caller holds, and
// its place in the recency order: every Get and Put of it takes the next
// tick, so two uses within one second still have an order.
type entry struct {
	d    Decision
	used uint64
}

// touch makes e the most recently used entry, used at unix.
func (s *Store) touch(e *entry, unix int64) {
	s.clock++
	e.used, e.d.LastUsedUnix = s.clock, unix
}

// OpenStore opens (or creates) the store at path, loading any existing
// decisions. max bounds retained entries (≥1; default 128 when ≤0). An
// empty path yields a memory-only store. A file with an unknown schema
// version or malformed JSON is an error — the caller chooses between
// deleting it and aborting; OpenStore never silently discards data.
func OpenStore(path string, max int) (*Store, error) {
	if max <= 0 {
		max = 128
	}
	s := &Store{path: path, max: max, entries: map[string]*entry{}}
	if path == "" {
		return s, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tune: open store: %w", err)
	}
	var f storeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("tune: store %s is not valid JSON: %w", path, err)
	}
	if f.Version != StoreVersion {
		return nil, fmt.Errorf("tune: store %s has schema version %d, want %d", path, f.Version, StoreVersion)
	}
	live := f.Entries[:0]
	for _, d := range f.Entries {
		if d != nil && d.Fingerprint != "" {
			live = append(live, d)
		}
	}
	// The file keeps recency as LastUsedUnix; ties keep the file's order.
	sort.SliceStable(live, func(i, j int) bool { return live[i].LastUsedUnix < live[j].LastUsedUnix })
	for _, d := range live {
		e := &entry{d: *d}
		s.touch(e, d.LastUsedUnix)
		s.entries[d.Fingerprint] = e
	}
	return s, nil
}

// Get returns a copy of the decision for fp, the caller's own, and makes it
// the most recently used entry. The recency update is persisted on the next
// Put/Flush, not per-Get.
func (s *Store) Get(fp uint64) (*Decision, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[FpString(fp)]
	if !ok {
		return nil, false
	}
	s.touch(e, time.Now().Unix())
	d := e.d
	return &d, true
}

// Put stores a copy of the decision (replacing any for its fingerprint) as
// the most recently used entry, evicts beyond the entry bound (least
// recently used first), and atomically rewrites the backing file.
func (s *Store) Put(d *Decision) error {
	if d == nil || d.Fingerprint == "" {
		return fmt.Errorf("tune: Put of decision without fingerprint")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.LastUsedUnix == 0 {
		d.LastUsedUnix = time.Now().Unix()
	}
	e := &entry{d: *d}
	s.touch(e, d.LastUsedUnix)
	s.entries[d.Fingerprint] = e
	for len(s.entries) > s.max {
		var oldest *entry
		for _, e := range s.entries {
			if oldest == nil || e.used < oldest.used {
				oldest = e
			}
		}
		delete(s.entries, oldest.d.Fingerprint)
	}
	return s.flushLocked()
}

// Len reports the number of stored decisions.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Flush rewrites the backing file (a no-op for memory-only stores). Useful
// at daemon shutdown to persist Get-side recency updates.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

// flushLocked writes the whole store through a temp file + atomic rename so
// a crash mid-write can never leave a truncated store behind.
func (s *Store) flushLocked() error {
	if s.path == "" {
		return nil
	}
	f := storeFile{Version: StoreVersion, Entries: make([]*Decision, 0, len(s.entries))}
	for _, e := range s.entries {
		f.Entries = append(f.Entries, &e.d)
	}
	// Deterministic order keeps the file diffable and tests stable.
	sort.Slice(f.Entries, func(i, j int) bool { return f.Entries[i].Fingerprint < f.Entries[j].Fingerprint })
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return fmt.Errorf("tune: encode store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(s.path), ".tunestore-*")
	if err != nil {
		return fmt.Errorf("tune: write store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("tune: write store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("tune: write store: %w", err)
	}
	if err := os.Rename(tmpName, s.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("tune: write store: %w", err)
	}
	return nil
}
