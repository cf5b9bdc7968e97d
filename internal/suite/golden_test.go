package suite

import "testing"

// standInGolden pins Fingerprint() of every stand-in at scale 64 and of
// Dubcova3 (the benchmark's paper-size matrix) at scale 1. The hashes were
// recorded before the generators were rewritten to write each row in final
// order: the suite, and every experiment golden built on it, must not move
// by one bit when matrix assembly gets faster.
var standInGolden = map[string]uint64{
	"2cubes_sphere": 0xc777cf51b0c6a915,
	"thermomech_TC": 0x883cff4cfd458299,
	"shipsec8":      0xb7fa1d6483eb80f8,
	"ship_003":      0xdee8fbba7ecee4ee,
	"cfd2":          0x6795ecb891206c7c,
	"boneS01":       0x870dd8a81911239d,
	"shipsec1":      0xd0e423b62a1abe2a,
	"bmw7st_1":      0xe164d268d78836b6,
	"Dubcova3":      0x8ce0ddb4c5d1352a,
	"bmwcra_1":      0xff1cd58efdda4305,
	"G2_circuit":    0x9aef4b69ee08bb57,
	"shipsec5":      0x5b786cb9c10f7962,
	"thermomech_dM": 0x64e6f89079ab59b3,
	"pwtk":          0xaa9edf82e601ccc5,
	"hood":          0x78cc605061c334a7,
	"offshore":      0x1da4263fbad587fd,
	"af_0_k101":     0x9a1d8c421dbc985c,
	"af_1_k101":     0x19b9678faabb3d95,
	"af_2_k101":     0xdee94f496d0b81f9,
	"af_3_k101":     0x2c7d25a0e271b5ee,
	"af_4_k101":     0x54cb581d6ce5ad74,
	"af_5_k101":     0x3c3553dcc3a872bd,
	"af_shell3":     0x6a4e7d9d2cf8195d,
	"af_shell4":     0xb5222f9ce7bdd59b,
	"af_shell7":     0x88016bb75232a1b7,
	"af_shell8":     0xe049f03d80a01128,
	"parabolic_fem": 0xcd2d466cbb74afe9,
	"Fault_639":     0x3e714973b49dcd40,
	"apache2":       0xcd7be37131840720,
	"Emilia_923":    0x2f49deeb7b716bc6,
	"audikw_1":      0x3da77eba3c2c45a7,
	"ldoor":         0x73f0f8b0ec804c4b,
	"bone010":       0xa5c0eb23c22d0743,
	"ecology2":      0x3dad21ec044378c6,
	"thermal2":      0x5bfd1dfb5fb33a25,
	"Serena":        0xf229b452e7e1211c,
	"Geo_1438":      0xea47bbd189d58762,
	"Hook_1498":     0x35185ef5c9fcc82e,
	"Flan_1565":     0xf206396246ab91f0,
	"G3_circuit":    0x7c16d9a493b978d7,
}

const dubcova3Golden = uint64(0xc6137f682a6962bf)

func TestStandInFingerprintsPinned(t *testing.T) {
	for _, p := range All() {
		if fp := p.Build(64).Fingerprint(); fp != standInGolden[p.Name] {
			t.Errorf("%s at scale 64: fingerprint %#016x, pinned %#016x", p.Name, fp, standInGolden[p.Name])
		}
	}
	p, _ := ByName("Dubcova3")
	if fp := p.Build(1).Fingerprint(); fp != dubcova3Golden {
		t.Errorf("Dubcova3 at scale 1: fingerprint %#016x, pinned %#016x", fp, dubcova3Golden)
	}
	if t.Failed() {
		t.Log("a change that moves a stand-in must regenerate table2_output.txt and table3_output.txt in the same change (commands in EXPERIMENTS.md, \"Reproducing everything\")")
	}
}
