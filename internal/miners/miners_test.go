package miners

import "testing"

// TestTable pins the kinds' order, which usage text and error messages
// list, and that every key a kind accepts sets exactly one Params field.
func TestTable(t *testing.T) {
	if got, want := Names(), "cliques|bicliques|quasi|truss|core|densest|cluster"; got != want {
		t.Fatalf("Names() = %q, want %q", got, want)
	}
	for _, k := range kinds {
		if Lookup(k.Name) != k {
			t.Errorf("Lookup(%q) is not its entry", k.Name)
		}
		for _, key := range k.Keys {
			if f, n := new(Params).Field(key); (f == nil) == (n == nil) {
				t.Errorf("%s: key %q sets no single Params field", k.Name, key)
			}
		}
	}
	if Lookup("bogus") != nil {
		t.Error("Lookup of an unknown name returned an entry")
	}
}
