package gateway

import (
	"maps"
	"testing"
)

// FuzzParseSession feeds arbitrary session header values to the parser: a
// client controls the header, so no value may panic, and whatever floors a
// value yields must survive a format/parse round trip unchanged (the
// gateway re-emits parsed sessions on every write).
func FuzzParseSession(f *testing.F) {
	for _, seed := range []string{
		"", "a=3", "a=3,b=7", " a = 3 , b = 7 ", "a=3,a=5,a=4",
		"junk,=4,a=,a=x,b=0,c=2", "k=v=9", "a==3", "a=5 =3,,=,",
		"x=18446744073709551615", "x=18446744073709551616", "\xff=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		floors := ParseSession(h)
		for doc, ver := range floors {
			if doc == "" || ver == 0 {
				t.Fatalf("ParseSession(%q) kept an empty doc or zero floor: %v", h, floors)
			}
		}
		formatted := FormatSession(floors)
		if back := ParseSession(formatted); !maps.Equal(back, floors) {
			t.Fatalf("ParseSession(%q) = %v, but its formatted form %q parses to %v", h, floors, formatted, back)
		}
		if again := FormatSession(ParseSession(formatted)); again != formatted {
			t.Fatalf("formatting is not stable: %q then %q", formatted, again)
		}
	})
}
