package service

import (
	"sync"

	"spcg/internal/sparse"
)

// formatPlan is the storage one solve runs on: the CSR (which set-up —
// preconditioner, spectrum, fault arming — always reads) and its SELL
// conversion when that format was chosen.
type formatPlan struct {
	name string // "csr" or "sell"
	mat  *sparse.CSR
	sell *sparse.SELL // nil ⇒ mat is the operator
}

// operator returns the matrix the solver is handed.
func (p formatPlan) operator() sparse.Matrix {
	if p.sell != nil {
		return p.sell
	}
	return p.mat
}

// formatEntry caches the per-fingerprint storage state: the selector's
// one-time decision and the SELL conversion once anything asked for it (an
// autotuned pin can demand it where the selector chose CSR), so the
// conversion cost is paid once per process lifetime, LRU aside.
type formatEntry struct {
	mu     sync.Mutex
	choice string // the selector's pick; "" until it has run
	sell   *sparse.SELL
}

// formatCache is the LRU of formatEntries, keyed by matrix fingerprint.
type formatCache struct {
	*lru[uint64, formatEntry]
	met *metrics
}

func newFormatCache(max int, met *metrics) *formatCache {
	return &formatCache{lru: newLRU[uint64, formatEntry](max), met: met}
}

func (c *formatCache) entries() int {
	_, _, n := c.stats()
	return n
}

// resolve returns the storage plan for a matrix. want names an explicit
// format (a tuned candidate's Format pin); empty means the format selector
// decides — its measured-probe decision runs once per fingerprint and is
// cached. Unknown want values fall back to the selector rather than
// failing the request: a stale store entry must not make a matrix
// unservable.
func (c *formatCache) resolve(a *sparse.CSR, fp uint64, want string) formatPlan {
	entry := c.get(fp)
	entry.mu.Lock()
	defer entry.mu.Unlock()

	name := want
	if _, ok := sparse.FormatByName(want); !ok || want == "" {
		if entry.choice == "" {
			entry.choice = sparse.ChooseFormat(a).Format
		}
		name = entry.choice
	}
	plan := formatPlan{name: name, mat: a}
	if name == "sell" {
		if entry.sell == nil {
			entry.sell = sparse.SELLFromCSR(a, 0, 0)
			if c.met != nil {
				c.met.formatConversions.Inc()
			}
		}
		plan.sell = entry.sell
	}
	return plan
}

// countServe bumps the per-format serving counters for one solve running on
// the given plan.
func (m *metrics) countServe(plan formatPlan) {
	if plan.sell != nil {
		m.formatSellSolves.Inc()
	} else {
		m.formatCSRSolves.Inc()
	}
}
