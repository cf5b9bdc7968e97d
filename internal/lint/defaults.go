package lint

// Repo-canonical analyzer configuration: the import paths and allowlists
// encoding this repository's invariants. cmd/spcglint and the repo-level
// lint gate test both run exactly this suite; fixture tests construct
// analyzers with their own configs instead.

// hotPathPackages are the numeric kernel packages whose results must be
// bitwise-reproducible run to run (the fused-vs-naive and SELL-vs-CSR parity
// pins depend on it).
var hotPathPackages = []string{
	"spcg/internal/vec",
	"spcg/internal/sparse",
	"spcg/internal/mpk",
	"spcg/internal/basis",
	"spcg/internal/dense",
	"spcg/internal/eig",
}

// exactParityTestFiles are the test files whose purpose is asserting bitwise
// float equality: fused-vs-naive kernel parity, microkernel-vs-reference
// parity, SELL-vs-CSR storage parity, fault-replay determinism, and
// golden-value pins. floatcmp exempts them wholesale; everything else needs
// a tolerance or a per-line directive.
var exactParityTestFiles = []string{
	"internal/basis/basis_test.go",
	"internal/dense/dense_test.go",
	"internal/fault/fault_test.go",
	"internal/gateway/e2e_test.go",
	"internal/gateway/gateway_test.go",
	"internal/mpk/mpk_test.go",
	"internal/obs/registry_test.go",
	"internal/obs/tracer_test.go",
	"internal/perfmodel/perfmodel_test.go",
	"internal/pool/pool_test.go",
	"internal/precond/precond_test.go",
	"internal/resilience/resilience_test.go",
	"internal/service/chaos_test.go",
	"internal/service/format_test.go",
	"internal/solver/concurrent_test.go",
	"internal/solver/fault_test.go",
	"internal/solver/fusedpath_test.go",
	"internal/solver/progress_test.go",
	"internal/solver/property_test.go",
	"internal/solver/replay_test.go",
	"internal/solver/trace_test.go",
	"internal/sparse/csr_test.go",
	"internal/sparse/format_test.go",
	"internal/sparse/memo_test.go",
	"internal/sparse/mm_test.go",
	"internal/sparse/parallel_test.go",
	"internal/sparse/sell_test.go",
	"internal/spmd/fault_test.go",
	"internal/spmd/parity_test.go",
	"internal/spmd/spmd_test.go",
	"internal/vec/block_test.go",
	"internal/vec/fused_test.go",
	"internal/vec/kernel_test.go",
	"internal/vec/vec_test.go",
}

// DefaultAnalyzers returns the full first-party suite with the repository's
// canonical configuration. The suite's order is the display order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Determinism(DeterminismConfig{
			Packages:     hotPathPackages,
			LoopPackages: []string{"spcg/internal/solver"},
		}),
		Safego(SafegoConfig{
			Packages: []string{
				"spcg/internal/service",
				"spcg/internal/gateway",
				"spcg/internal/spmd",
			},
			SafePath: "spcg/internal/resilience",
			SafeFunc: "Safe",
		}),
		Cancelpoll(CancelpollConfig{
			Package:     "spcg/internal/solver",
			RegistryVar: "methods",
			CheckCall:   "done",
			PollCalls:   []string{"cancelled"},
		}),
		Floatcmp(FloatcmpConfig{
			AllowFiles: exactParityTestFiles,
		}),
		Allocfree(AllocfreeConfig{
			Packages: []string{
				"spcg/internal/vec",
				"spcg/internal/sparse",
				"spcg/internal/mpk",
				"spcg/internal/solver",
				"spcg/internal/spmd",
			},
			// The fused kernels (the column step FusedBasisSteps and its
			// row form on every layer, both backends' included) and their
			// recurrence tail (basisTail); the SpMV and its row kernel
			// (MulVecPar, MulVecRows); the multi-vector SpMV and its row
			// kernels (MulBlockPar, MulBlockRows, mulGroupRows, mulRows2..4);
			// the backends' paired product on top of it (SpMVPair,
			// spmvWithNext) and a rank's halo exchange (exchange); CA-PCG3's
			// inner-step sweep (ThreeTermSteps, threeTermStepsRows) and the
			// solver's driver of it (ctx.threeTermSteps).
			FuncPattern: `Fused|^basisTail$|^MulVec(Par|Rows)$|^[mM]ul(Block|Group|Rows)|^SpMVPair$|^spmvWithNext$|^exchange$|^[tT]hreeTermSteps`,
		}),
		Metricdoc(MetricdocConfig{
			ObsPath:      "spcg/internal/obs",
			Constructors: []string{"Counter", "CounterFunc", "Gauge", "GaugeFunc", "Histogram"},
			MetricsDoc:   "docs/OBSERVABILITY.md",
			RoutesDoc:    "docs/API.md",
			RoutesVar:    "routes",
		}),
	}
}
