package sparse

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseMatrixSpec is the one parser of the parametric matrix-spec grammar
// ("family:args") shared by the solve daemon and the CLIs:
//
//	poisson1d:N
//	poisson2d:NX[:NY]
//	poisson3d:NX[:NY:NZ]
//	varcoeff2d:NX:CONTRAST[:SEED]
//	varcoeff3d:NX:CONTRAST[:SEED]
//	aniso2d:NX:EPS
//	hubgraph:N[:SEED]    random graph Laplacian with high-degree hubs
//	circuit:NX[:SEED]    NX×NX grid Laplacian with NX²/20 long-range edges
//
// Sizes are positive integers (N, NX ≥ 2 for hubgraph and circuit), SEED
// defaults to 1, CONTRAST ≥ 0 and EPS > 0 are finite. Suite names are not
// part of the grammar; callers that serve them look those up first. It
// returns a closure that builds the matrix, the dimension the build will
// produce (saturating instead of overflowing), so a caller enforces its size
// cap before anything is allocated, and the spec's canonical key: the
// lowercase family with every argument written out in its shortest form and
// every default filled in ("Poisson2D:016" is "poisson2d:16:16",
// "hubgraph:4096" is "hubgraph:4096:1"). Two specs with one key build one
// matrix, and a key parses to itself.
func ParseMatrixSpec(spec string) (build func() *CSR, dim int, key string, err error) {
	parts := strings.Split(spec, ":")
	family, args := strings.ToLower(parts[0]), parts[1:]
	// A missing argument reads as "", which no number parser accepts.
	arg := func(i int) string {
		if i < len(args) {
			return args[i]
		}
		return ""
	}
	fail := func(what string, i int) {
		if err == nil {
			err = fmt.Errorf("matrix %q: bad %s %q", spec, what, arg(i))
		}
	}
	size := func(i, min int) int {
		v, perr := strconv.Atoi(arg(i))
		if perr != nil || v < min {
			fail("size", i)
		}
		return v
	}
	seed := func(i int) int64 {
		if i >= len(args) {
			return 1
		}
		v, perr := strconv.ParseInt(arg(i), 10, 64)
		if perr != nil {
			fail("seed", i)
		}
		return v
	}
	real := func(i int, what string, positive bool) float64 {
		v, perr := strconv.ParseFloat(arg(i), 64)
		if perr != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (positive && v == 0) {
			fail(what, i)
		}
		if v == 0 {
			v = 0 // -0 builds what 0 builds, so it keys as 0
		}
		return v
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var maxArgs int
	switch family {
	case "poisson1d":
		n := size(0, 1)
		build, dim, maxArgs = func() *CSR { return Poisson1D(n) }, n, 1
		key = fmt.Sprintf("poisson1d:%d", n)
	case "poisson2d":
		nx := size(0, 1)
		ny := nx
		if len(args) > 1 {
			ny = size(1, 1)
		}
		build, dim, maxArgs = func() *CSR { return Poisson2D(nx, ny) }, satMul(nx, ny), 2
		key = fmt.Sprintf("poisson2d:%d:%d", nx, ny)
	case "poisson3d":
		nx := size(0, 1)
		ny, nz := nx, nx
		if len(args) > 1 {
			ny, nz = size(1, 1), size(2, 1)
		}
		build, dim, maxArgs = func() *CSR { return Poisson3D(nx, ny, nz) }, satMul(satMul(nx, ny), nz), 3
		key = fmt.Sprintf("poisson3d:%d:%d:%d", nx, ny, nz)
	case "varcoeff2d":
		nx, contrast, sd := size(0, 1), real(1, "contrast", false), seed(2)
		build, dim, maxArgs = func() *CSR { return VarCoeff2D(nx, nx, contrast, sd) }, satMul(nx, nx), 3
		key = fmt.Sprintf("varcoeff2d:%d:%s:%d", nx, g(contrast), sd)
	case "varcoeff3d":
		nx, contrast, sd := size(0, 1), real(1, "contrast", false), seed(2)
		build, dim, maxArgs = func() *CSR { return VarCoeff3D(nx, nx, nx, contrast, sd) }, satMul(satMul(nx, nx), nx), 3
		key = fmt.Sprintf("varcoeff3d:%d:%s:%d", nx, g(contrast), sd)
	case "aniso2d":
		nx, eps := size(0, 1), real(1, "epsilon", true)
		build, dim, maxArgs = func() *CSR { return Anisotropic2D(nx, nx, eps) }, satMul(nx, nx), 2
		key = fmt.Sprintf("aniso2d:%d:%s", nx, g(eps))
	case "hubgraph":
		n, sd := size(0, 2), seed(1)
		build, dim, maxArgs = func() *CSR { return HubGraphLaplacian(n, 4, 192, 48, 0.5, sd) }, n, 2
		key = fmt.Sprintf("hubgraph:%d:%d", n, sd)
	case "circuit":
		nx, sd := size(0, 2), seed(1)
		build, dim, maxArgs = func() *CSR { return CircuitLaplacian(nx, nx, nx*nx/20, 1e-3, sd) }, satMul(nx, nx), 2
		key = fmt.Sprintf("circuit:%d:%d", nx, sd)
	default:
		return nil, 0, "", fmt.Errorf("unknown matrix %q (suite name or generator spec expected)", spec)
	}
	if err == nil && len(args) > maxArgs {
		err = fmt.Errorf("matrix %q: %s takes at most %d arguments", spec, family, maxArgs)
	}
	if err != nil {
		return nil, 0, "", err
	}
	return build, dim, key, nil
}

// satMul multiplies two positive dimensions, saturating instead of
// overflowing so absurd generator specs still compare above any size cap.
func satMul(a, b int) int {
	if a > 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}
