package spmd

import (
	"fmt"
	"sort"

	"spcg/internal/sparse"
)

// LocalMatrix is one rank's share of a block-row distributed CSR matrix:
// the owned rows with column indices remapped into a compact local+ghost
// index space, plus the send/receive lists of the halo-exchange protocol.
type LocalMatrix struct {
	Rank   int
	Lo, Hi int // owned global rows [Lo, Hi)

	// a holds the owned rows: a.N is NLocal, and the columns are in the
	// local+ghost space — [0, NLocal) owned, [NLocal, NLocal+NGhost) ghosts —
	// so the sparse row kernels (MulVecRows, MulBlockRows, the fused basis
	// steps) run on it unchanged with an extended vector from Exchange.
	a *sparse.CSR

	ghostGlobal []int // global index of each ghost slot (sorted)

	// neighbors[i] is a peer rank; sendIdx[i] lists the LOCAL indices whose
	// values we pack for that peer; recvSlot[i] lists the ghost slots we
	// scatter its payload into. Packing order is the sorted global index
	// order on both sides, so sender and receiver agree without metadata.
	neighbors []int
	sendIdx   [][]int
	recvSlot  [][]int

	// Scratch of exchange: per vector of one exchange the owned values
	// followed by the ghost values, and per peer room for two vectors' values.
	xExt    [2][]float64
	sendBuf [][]float64
}

// NLocal returns the number of owned rows.
func (lm *LocalMatrix) NLocal() int { return lm.Hi - lm.Lo }

// Distribute splits a into p block-row local matrices (nnz-balanced, the
// same partition dist.NewCluster models) and builds the halo protocol. The
// local matrices share a's values, so a must not change while they are in
// use.
func Distribute(a *sparse.CSR, p int) ([]*LocalMatrix, error) {
	if p < 1 || p > a.Dim() {
		return nil, fmt.Errorf("spmd: cannot distribute %d rows over %d ranks", a.Dim(), p)
	}
	bounds := sparse.NNZBalancedRanges(a, p)
	owner := func(row int) int {
		r := sort.Search(len(bounds), func(i int) bool { return bounds[i] > row }) - 1
		if r < 0 {
			r = 0
		}
		if r >= p {
			r = p - 1
		}
		return r
	}

	locals := make([]*LocalMatrix, p)
	// ghostsOf[r] = sorted distinct global ghost indices of rank r.
	ghostsOf := make([][]int, p)
	for r := 0; r < p; r++ {
		lo, hi := bounds[r], bounds[r+1]
		seen := map[int]struct{}{}
		for i := lo; i < hi; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.ColIdx[k]
				if j < lo || j >= hi {
					seen[j] = struct{}{}
				}
			}
		}
		ghosts := make([]int, 0, len(seen))
		for j := range seen {
			ghosts = append(ghosts, j)
		}
		sort.Ints(ghosts)
		ghostsOf[r] = ghosts
	}

	for r := 0; r < p; r++ {
		lo, hi := bounds[r], bounds[r+1]
		lm := &LocalMatrix{Rank: r, Lo: lo, Hi: hi, ghostGlobal: ghostsOf[r]}
		nLocal := hi - lo
		ghostSlot := make(map[int]int, len(lm.ghostGlobal))
		for slot, g := range lm.ghostGlobal {
			ghostSlot[g] = nLocal + slot
		}
		// The owned rows: a's values in place (read-only, like a), the row
		// structure rebased and the column indices remapped.
		first, last := a.RowPtr[lo], a.RowPtr[hi]
		lm.a = &sparse.CSR{
			N:      nLocal,
			RowPtr: make([]int, nLocal+1),
			ColIdx: make([]int, last-first),
			Val:    a.Val[first:last:last],
		}
		for i := lo; i < hi; i++ {
			lm.a.RowPtr[i-lo+1] = a.RowPtr[i+1] - first
		}
		for k, j := range a.ColIdx[first:last] {
			if j >= lo && j < hi {
				lm.a.ColIdx[k] = j - lo
			} else {
				lm.a.ColIdx[k] = ghostSlot[j]
			}
		}
		// Receive protocol: group ghosts by owner (ghosts are globally
		// sorted, so per-owner order is sorted too).
		recvBy := map[int][]int{}
		for slot, g := range lm.ghostGlobal {
			recvBy[owner(g)] = append(recvBy[owner(g)], nLocal+slot)
		}
		var peers []int
		for peer := range recvBy {
			peers = append(peers, peer)
		}
		sort.Ints(peers)
		for _, peer := range peers {
			lm.neighbors = append(lm.neighbors, peer)
			lm.recvSlot = append(lm.recvSlot, recvBy[peer])
		}
		for v := range lm.xExt {
			lm.xExt[v] = make([]float64, nLocal+len(lm.ghostGlobal))
		}
		locals[r] = lm
	}

	// Send protocol: rank q must send to r exactly the values r receives
	// from q, in the same (global-index-sorted) order.
	for r := 0; r < p; r++ {
		lm := locals[r]
		lm.sendIdx = make([][]int, len(lm.neighbors))
		lm.sendBuf = make([][]float64, len(lm.neighbors))
		for i, peer := range lm.neighbors {
			// Globals that `peer` needs from r (sorted subset of peer's ghosts).
			var idx []int
			for _, g := range ghostsOf[peer] {
				if g >= lm.Lo && g < lm.Hi {
					idx = append(idx, g-lm.Lo)
				}
			}
			lm.sendIdx[i] = idx
			lm.sendBuf[i] = make([]float64, len(lm.xExt)*len(idx))
		}
	}
	// Validate symmetry of the protocol (structurally symmetric matrices
	// always satisfy it; reject pathological inputs instead of deadlocking).
	for r := 0; r < p; r++ {
		lm := locals[r]
		for i, peer := range lm.neighbors {
			if len(lm.sendIdx[i]) == 0 {
				return nil, fmt.Errorf("spmd: rank %d receives from %d but has nothing to send back; matrix is structurally unsymmetric", r, peer)
			}
		}
	}
	return locals, nil
}

// Exchange performs the halo exchange for the owned vector x (length NLocal)
// and returns the extended vector [x | ghosts] the local rows multiply. The
// returned slice is rank-local scratch, valid until the next Exchange.
func (lm *LocalMatrix) Exchange(rk *Rank, x []float64) []float64 {
	return lm.exchange(rk, x)[0]
}

// exchange is Exchange for one or two owned vectors at once: one message per
// peer carries the values of every vector (vector after vector, each in the
// sorted packing order), and the j-th extended vector comes back as xExt[j].
// Every rank of a round must pass the same number of vectors.
func (lm *LocalMatrix) exchange(rk *Rank, xs ...[]float64) [][]float64 {
	k := len(xs)
	for j, x := range xs {
		if len(x) != lm.NLocal() {
			panic(fmt.Sprintf("spmd: Exchange expects %d owned values, got %d", lm.NLocal(), len(x)))
		}
		copy(lm.xExt[j], x)
	}
	for i, peer := range lm.neighbors {
		idx := lm.sendIdx[i]
		buf := lm.sendBuf[i][:k*len(idx)]
		for j, x := range xs {
			part := buf[j*len(idx):]
			for m, local := range idx {
				part[m] = x[local]
			}
		}
		rk.Send(peer, buf)
	}
	for i, peer := range lm.neighbors {
		payload := rk.Recv(peer)
		slots := lm.recvSlot[i]
		if len(payload) != k*len(slots) {
			panic(fmt.Sprintf("spmd: rank %d got %d values from %d, expected %d", lm.Rank, len(payload), peer, k*len(slots)))
		}
		for j, ext := range lm.xExt[:k] {
			part := payload[j*len(slots):]
			for m, slot := range slots {
				ext[slot] = part[m]
			}
		}
	}
	// The sense-reversing round structure (each pair exchanges exactly one
	// message, buffered channels of depth 1) needs a barrier so a fast rank
	// cannot start the next round's sends before this round's receives.
	rk.Barrier()
	return lm.xExt[:k]
}

// SpMV computes the owned rows of A·x into dst: Exchange, then the local
// rows.
func (lm *LocalMatrix) SpMV(rk *Rank, dst, x []float64) {
	if len(dst) != lm.NLocal() {
		panic("spmd: SpMV dst length mismatch")
	}
	lm.a.MulVecRows(dst, lm.Exchange(rk, x), 0, len(dst))
}
