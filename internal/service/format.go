package service

import "spcg/internal/sparse"

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

// storage returns the storage plan for a registered matrix, from the state
// the registry entry owning its fingerprint keeps. want names an explicit format (a tuned
// candidate's Format pin); empty means the format selector decides. Its
// measured-probe decision runs once per matrix, and the SELL conversion is
// built once, the first time anything asks for it (an autotuned pin can
// demand it where the selector chose CSR); both stay with the entry for the
// life of the process. Unknown want values fall back to the selector rather
// than failing the request: a stale store entry must not make a matrix
// unservable.
func (s *Server) storage(a *sparse.CSR, fp uint64, want string) formatPlan {
	e := s.reg.owner(fp)
	e.fmu.Lock()
	defer e.fmu.Unlock()

	name := want
	if _, ok := sparse.FormatByName(want); !ok || want == "" {
		if e.choice == "" {
			e.choice = sparse.ChooseFormat(a).Format
		}
		name = e.choice
	}
	plan := formatPlan{name: name, mat: a}
	if name == "sell" {
		if e.sell == nil {
			e.sell = sparse.SELLFromCSR(a, 0, 0)
			s.reg.charge(e.sell.Bytes())
			s.met.formatConversions.Inc()
		}
		plan.sell = e.sell
	}
	return plan
}

// countServe bumps the per-format serving counters for one solve that ran on
// the named format.
func (m *metrics) countServe(format string) {
	if format == "sell" {
		m.formatSellSolves.Inc()
	} else {
		m.formatCSRSolves.Inc()
	}
}
