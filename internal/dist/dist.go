// Package dist models the distributed-memory execution of the solvers on a
// virtual cluster, substituting for the paper's MPI runs on the ASC
// infrastructure (see DESIGN.md, "Substitutions").
//
// The solvers execute their numerics in one address space but route every
// length-n operation through a Tracker, which charges a bulk-synchronous
// cost model:
//
//   - local work uses a roofline: time = max(flops/FlopRate, bytes/rankBW),
//     evaluated on the most loaded rank of the block-row partition (computed
//     from the actual matrix, nnz-balanced exactly like the real runs);
//   - halo exchanges charge latency per neighbour plus ghost volume over the
//     network bandwidth, with ghost counts measured from the actual matrix;
//   - global allreduces charge ceil(log₂P)·(α + bytes·β), the binomial-tree
//     model whose latency term is the scalability bottleneck the paper's
//     s-step methods attack.
//
// Everything the paper varies — node count, ranks per node, s — maps to
// observable model inputs, and everything the paper measures — runtime,
// speedup, scaling knee — comes out of Tracker.Time.
package dist

import (
	"fmt"
	"math"
	"sort"

	"spcg/internal/sparse"
)

// Machine describes the modeled hardware, loosely calibrated to a
// contemporary HPC node (the paper's ASC nodes run 128 ranks each).
type Machine struct {
	// RanksPerNode is the number of MPI ranks per node (paper: 128).
	RanksPerNode int
	// FlopRate is the effective per-rank floating-point rate (FLOP/s) for
	// compute-bound kernels.
	FlopRate float64
	// NodeMemBW is the per-node memory bandwidth in bytes/s, shared by the
	// node's ranks; it bounds BLAS1/SpMV-style streaming kernels.
	NodeMemBW float64
	// NetLatency is the per-message network latency α in seconds.
	NetLatency float64
	// NetBandwidth is the per-rank network bandwidth in bytes/s.
	NetBandwidth float64
}

// DefaultMachine returns the calibration used by the experiment drivers:
// 128 ranks/node, 2 GF/s per rank, 200 GB/s node memory bandwidth,
// 2 µs latency, 12.5 GB/s network bandwidth per link.
func DefaultMachine() Machine {
	return Machine{
		RanksPerNode: 128,
		FlopRate:     2e9,
		NodeMemBW:    200e9,
		NetLatency:   2e-6,
		NetBandwidth: 12.5e9,
	}
}

// RankMemBW returns the per-rank share of node memory bandwidth.
func (m Machine) RankMemBW() float64 { return m.NodeMemBW / float64(m.RanksPerNode) }

// Cluster is a virtual cluster bound to a concrete matrix: it holds the
// block-row partition and the halo structure measured from that matrix.
type Cluster struct {
	M     Machine
	Nodes int
	P     int // total ranks
	N     int // matrix dimension
	NNZ   int

	// RowBounds has P+1 entries: rank r owns rows [RowBounds[r], RowBounds[r+1]).
	RowBounds []int
	// MaxRows and MaxNNZ are the most loaded rank's row and nnz counts.
	MaxRows, MaxNNZ int
	// MaxHaloRecv is the largest per-rank count of distinct ghost entries
	// received per halo exchange; MaxNeighbors the largest per-rank
	// neighbour count.
	MaxHaloRecv, MaxNeighbors int
}

// NewCluster partitions a block-row over nodes·RanksPerNode ranks (nnz
// balanced) and measures the halo structure.
func NewCluster(m Machine, nodes int, a *sparse.CSR) (*Cluster, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("dist: need ≥ 1 node, got %d", nodes)
	}
	if m.RanksPerNode < 1 || m.FlopRate <= 0 || m.NodeMemBW <= 0 || m.NetLatency < 0 || m.NetBandwidth <= 0 {
		return nil, fmt.Errorf("dist: invalid machine %+v", m)
	}
	p := nodes * m.RanksPerNode
	if p > a.Dim() {
		return nil, fmt.Errorf("dist: %d ranks exceed %d matrix rows", p, a.Dim())
	}
	c := &Cluster{M: m, Nodes: nodes, P: p, N: a.Dim(), NNZ: a.NNZ()}
	c.RowBounds = sparse.NNZBalancedRanges(a, p)
	for r := 0; r < p; r++ {
		rows := c.RowBounds[r+1] - c.RowBounds[r]
		nnz := a.RowPtr[c.RowBounds[r+1]] - a.RowPtr[c.RowBounds[r]]
		if rows > c.MaxRows {
			c.MaxRows = rows
		}
		if nnz > c.MaxNNZ {
			c.MaxNNZ = nnz
		}
	}
	c.measureHalo(a)
	return c, nil
}

// measureHalo finds, for each rank, the distinct off-partition columns its
// rows reference (ghost entries) and the distinct owner ranks (neighbours),
// recording the maxima.
func (c *Cluster) measureHalo(a *sparse.CSR) {
	stamp := make([]int, a.Dim())
	for i := range stamp {
		stamp[i] = -1
	}
	neighborStamp := make([]int, c.P)
	for i := range neighborStamp {
		neighborStamp[i] = -1
	}
	for r := 0; r < c.P; r++ {
		lo, hi := c.RowBounds[r], c.RowBounds[r+1]
		ghosts, neighbors := 0, 0
		for i := lo; i < hi; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				j := a.ColIdx[k]
				if j >= lo && j < hi {
					continue
				}
				if stamp[j] != r {
					stamp[j] = r
					ghosts++
					owner := c.ownerOf(j)
					if neighborStamp[owner] != r {
						neighborStamp[owner] = r
						neighbors++
					}
				}
			}
		}
		if ghosts > c.MaxHaloRecv {
			c.MaxHaloRecv = ghosts
		}
		if neighbors > c.MaxNeighbors {
			c.MaxNeighbors = neighbors
		}
	}
}

// ownerOf returns the rank owning row j.
func (c *Cluster) ownerOf(j int) int {
	// RowBounds is sorted; find the rank with RowBounds[r] ≤ j < RowBounds[r+1].
	r := sort.Search(len(c.RowBounds), func(i int) bool { return c.RowBounds[i] > j }) - 1
	if r < 0 {
		r = 0
	}
	if r >= c.P {
		r = c.P - 1
	}
	return r
}

// MaxRowShare returns MaxRows/N: the load-imbalance factor applied to
// row-proportional local work.
func (c *Cluster) MaxRowShare() float64 { return float64(c.MaxRows) / float64(c.N) }

// MaxNNZShare returns MaxNNZ/NNZ.
func (c *Cluster) MaxNNZShare() float64 { return float64(c.MaxNNZ) / float64(c.NNZ) }

// Roofline returns the local-phase time for the most loaded rank given its
// flop and byte counts.
func (c *Cluster) Roofline(flops, bytes float64) float64 {
	return math.Max(flops/c.M.FlopRate, bytes/c.M.RankMemBW())
}

// AllreduceTime returns the modeled time of one allreduce of `values`
// float64 values over all P ranks: ceil(log₂P)·(α + 8·values·β).
func (c *Cluster) AllreduceTime(values int) float64 {
	steps := math.Ceil(math.Log2(float64(c.P)))
	if steps < 1 {
		steps = 1
	}
	return steps * (c.M.NetLatency + float64(8*values)/c.M.NetBandwidth)
}

// HaloTime returns the modeled time of one halo exchange: latency per
// neighbour plus ghost volume over the wire.
func (c *Cluster) HaloTime() float64 {
	if c.P == 1 {
		return 0
	}
	return float64(c.MaxNeighbors)*c.M.NetLatency + float64(8*c.MaxHaloRecv)/c.M.NetBandwidth
}
