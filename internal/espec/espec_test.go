package espec

import (
	"strings"
	"testing"

	"pmevo/internal/portmap"
)

func testResolver() *Resolver {
	return NewResolver([]string{"add_r64_r64", "imul_r64_r64", "mov_m64_r64"})
}

func TestParseBasic(t *testing.T) {
	r := testResolver()
	e, err := r.Parse([]string{"add_r64_r64:2", "imul_r64_r64"})
	if err != nil {
		t.Fatal(err)
	}
	want := portmap.Experiment{{Inst: 0, Count: 2}, {Inst: 1, Count: 1}}
	if e.Key() != want.Key() {
		t.Errorf("parsed %v, want %v", e, want)
	}
}

func TestParseMergesRepeats(t *testing.T) {
	r := testResolver()
	e, err := r.Parse([]string{"add_r64_r64", "add_r64_r64:3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(e) != 1 || e[0].Count != 4 {
		t.Errorf("parsed %v, want merged count 4", e)
	}
}

func TestParseErrors(t *testing.T) {
	r := testResolver()
	cases := [][]string{
		nil,
		{""},
		{"add_r64_r64:0"},
		{"add_r64_r64:-1"},
		{"add_r64_r64:x"},
		{"nope_r64"},
		{":3"},
		{"add_r64_r64:4611686018427387904", "add_r64_r64:4611686018427387904"},
	}
	for _, toks := range cases {
		if _, err := r.Parse(toks); err == nil {
			t.Errorf("Parse(%v) succeeded", toks)
		}
	}
}

func TestParseSuggestions(t *testing.T) {
	r := testResolver()
	_, err := r.Parse([]string{"add_r32_r32"})
	if err == nil {
		t.Fatal("unknown form accepted")
	}
	if !strings.Contains(err.Error(), "add_r64_r64") {
		t.Errorf("error lacks suggestion: %v", err)
	}
}

func TestLookupAndNames(t *testing.T) {
	r := testResolver()
	if i, ok := r.Lookup("imul_r64_r64"); !ok || i != 1 {
		t.Errorf("Lookup = %d, %v", i, ok)
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Error("missing name resolved")
	}
	if len(r.Names()) != 3 {
		t.Errorf("Names() = %v", r.Names())
	}
}

func TestResolverSkipsEmptyAndDuplicateNames(t *testing.T) {
	r := NewResolver([]string{"a", "", "a", "b"})
	if i, _ := r.Lookup("a"); i != 0 {
		t.Errorf("duplicate name resolved to %d, want first occurrence 0", i)
	}
	if _, ok := r.Lookup(""); ok {
		t.Error("empty name resolvable")
	}
}

func TestFormat(t *testing.T) {
	r := testResolver()
	e := portmap.Experiment{{Inst: 1, Count: 1}, {Inst: 0, Count: 2}}
	if got := r.Format(e); got != "add_r64_r64:2 imul_r64_r64" {
		t.Errorf("Format = %q", got)
	}
	// Out-of-table indices render generically.
	if got := r.Format(portmap.Experiment{{Inst: 9, Count: 1}}); got != "I9" {
		t.Errorf("Format = %q", got)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	r := testResolver()
	orig := portmap.Experiment{{Inst: 0, Count: 3}, {Inst: 2, Count: 1}}
	back, err := r.Parse(strings.Fields(r.Format(orig)))
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != orig.Normalize().Key() {
		t.Errorf("round trip %v -> %v", orig, back)
	}
}
