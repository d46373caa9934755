package paracrash

import (
	"testing"
)

// FuzzParseModel hammers the consistency-model parser: it must never
// panic, must reject everything but the four canonical names, and every
// accepted name must round-trip through String and MarshalJSON — the
// property configuration files and the fuzz-campaign corpus format rely
// on.
func FuzzParseModel(f *testing.F) {
	for _, s := range []string{
		"strict", "commit", "causal", "baseline",
		"", "Strict", "causal ", "model(7)", "commit\x00", "baselinee",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseModel(s)
		if err != nil {
			// Rejected input: the error must name the offending string and
			// the zero model must still render.
			_ = Model(0).String()
			return
		}
		if m.String() != s {
			t.Fatalf("ParseModel(%q) = %v, but String() = %q", s, m, m.String())
		}
		back, err := ParseModel(m.String())
		if err != nil || back != m {
			t.Fatalf("model %v does not round-trip: %v, %v", m, back, err)
		}
		j, err := m.MarshalJSON()
		if err != nil {
			t.Fatalf("MarshalJSON(%v): %v", m, err)
		}
		if string(j) != `"`+s+`"` {
			t.Fatalf("MarshalJSON(%v) = %s, want %q", m, j, s)
		}
	})
}

// FuzzStateDigest pins the properties the class memo borrows from the
// digest: determinism, the layer-qualified shape ("layer:16-hex"), and
// discrimination — two (layer, content) pairs collide exactly when they are
// equal, so two crash states with different recovered content can never
// share a class key.
func FuzzStateDigest(f *testing.F) {
	f.Add("pfs", "dir /\nfile /a 3 abc\n", "pfs", "dir /\n")
	f.Add("crash", "dir /\nfile /a 3 abc\n", "crash", "dir /\nfile /a 3 abc\n")
	f.Add("crash", "UNRECOVERABLE: torn journal", "crash", "UNMOUNTABLE: no superblock")
	f.Add("h5", "", "pfs", "")
	f.Add("", "x", "x", "")
	f.Fuzz(func(t *testing.T, layerA, contentA, layerB, contentB string) {
		da := StateDigest(layerA, contentA)
		if da != StateDigest(layerA, contentA) {
			t.Fatalf("StateDigest(%q, %q) not deterministic", layerA, contentA)
		}
		if len(da) != len(layerA)+1+16 || da[:len(layerA)] != layerA || da[len(layerA)] != ':' {
			t.Fatalf("StateDigest(%q, %q) = %q, want layer-prefixed 16-hex", layerA, contentA, da)
		}
		for _, c := range da[len(layerA)+1:] {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("StateDigest(%q, %q) = %q: non-hex digest byte %q", layerA, contentA, da, c)
			}
		}
		db := StateDigest(layerB, contentB)
		if layerA == layerB && contentA == contentB && da != db {
			t.Fatalf("equal inputs digest differently: %q vs %q", da, db)
		}
		if (layerA != layerB || contentA != contentB) && da == db {
			t.Fatalf("distinct inputs (%q,%q) vs (%q,%q) collide on %q", layerA, contentA, layerB, contentB, da)
		}
	})
}
