package meta

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/open-metadata/xmit/internal/platform"
)

// randomDefs derives a sanitized, always-valid field definition list from
// raw fuzz bytes.
func randomDefs(raw []byte) []FieldDef {
	var defs []FieldDef
	var lastInt string
	for i, b := range raw {
		if len(defs) >= 20 {
			break
		}
		name := fmt.Sprintf("f%d", i)
		switch b % 7 {
		case 0:
			defs = append(defs, FieldDef{Name: name, Kind: Integer, Class: platform.Int})
			lastInt = name
		case 1:
			defs = append(defs, FieldDef{Name: name, Kind: Unsigned, Class: platform.Long})
		case 2:
			defs = append(defs, FieldDef{Name: name, Kind: Float, Class: platform.Double})
		case 3:
			defs = append(defs, FieldDef{Name: name, Kind: String})
		case 4:
			defs = append(defs, FieldDef{Name: name, Kind: Boolean, Class: platform.Bool})
		case 5:
			defs = append(defs, FieldDef{Name: name, Kind: Char, Class: platform.Char,
				StaticDim: int(b%5) + 1})
		case 6:
			if lastInt != "" {
				defs = append(defs, FieldDef{Name: name, Kind: Float, Class: platform.Float,
					LengthField: lastInt})
			} else {
				defs = append(defs, FieldDef{Name: name, Kind: Enum, Class: platform.Enum})
			}
		}
	}
	if len(defs) == 0 {
		defs = []FieldDef{{Name: "x", Kind: Integer, Class: platform.Int}}
	}
	return defs
}

// Property: every format built from sanitized random definitions
// canonicalises and re-parses to an identical format on every platform.
func TestQuickCanonicalRoundTrip(t *testing.T) {
	plats := platform.All()
	i := 0
	prop := func(raw []byte) bool {
		p := plats[i%len(plats)]
		i++
		f, err := Build("Q", p, randomDefs(raw))
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		g, err := ParseCanonical(f.Canonical())
		if err != nil {
			t.Logf("parse: %v", err)
			return false
		}
		return g.ID() == f.ID() && g.String() == f.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: ParseCanonical never panics on corrupted canonical bytes, and
// any corruption it accepts yields a structurally valid format.
func TestQuickCanonicalCorruption(t *testing.T) {
	f, err := Build("Base", platform.Sparc32, []FieldDef{
		{Name: "a", Kind: Integer, Class: platform.Int},
		{Name: "s", Kind: String},
		{Name: "v", Kind: Float, Class: platform.Float, LengthField: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := f.Canonical()
	prop := func(pos uint16, val byte, cut uint16) bool {
		mut := append([]byte(nil), base...)
		mut[int(pos)%len(mut)] ^= val
		if int(cut)%4 == 0 {
			mut = mut[:len(mut)-int(cut)%len(mut)]
		}
		g, err := ParseCanonical(mut)
		if err != nil {
			return true
		}
		return g.Validate() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

// Property: format identity is injective over the sampled definition space
// — different sanitized definitions never collide on ID unless their
// formats are byte-identical.
func TestQuickIDInjective(t *testing.T) {
	seen := map[FormatID]string{}
	prop := func(raw []byte) bool {
		f, err := Build("Q", platform.X8664, randomDefs(raw))
		if err != nil {
			return false
		}
		id := f.ID()
		canon := string(f.Canonical())
		if prev, ok := seen[id]; ok {
			return prev == canon
		}
		seen[id] = canon
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
