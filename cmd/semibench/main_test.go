package main

import (
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int
		err  bool
	}{
		{"1000", 1000, false},
		{"1e6", 1_000_000, false},
		{"2.5e3", 2500, false},
		{"4m", 4_000_000, false},
		{"4M", 4_000_000, false},
		{"10k", 10_000, false},
		{"1g", 1_000_000_000, false},
		{" 42 ", 42, false},
		{"0", 0, true},
		{"-5", 0, true},
		{"abc", 0, true},
		{"", 0, true},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if (err != nil) != c.err {
			t.Errorf("parseSize(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseSizeList(t *testing.T) {
	got, err := parseSizeList("1e3,2k,5")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1000, 2000, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
	if _, err := parseSizeList("1,x"); err == nil {
		t.Error("expected error for bad element")
	}
}

func TestParseIntList(t *testing.T) {
	got, err := parseIntList("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("got %v err %v", got, err)
	}
	if _, err := parseIntList("0"); err == nil {
		t.Error("zero must be rejected")
	}
	if _, err := parseIntList("a"); err == nil {
		t.Error("non-integer must be rejected")
	}
}

// The experiment names live in three hand-edited places: the experiments
// map, the order slice and the package doc comment. They must agree.
func TestExperimentRegistryMatchesOrder(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range order {
		if seen[name] {
			t.Errorf("order names %q twice", name)
		}
		seen[name] = true
		if _, ok := experiments[name]; !ok {
			t.Errorf("order entry %q missing from registry", name)
		}
	}
	for name := range experiments {
		if !seen[name] {
			t.Errorf("registry entry %q missing from order", name)
		}
	}

	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(f.Doc.Text(), "Experiments:")
	if !ok {
		t.Fatal(`package doc has no "Experiments:" list`)
	}
	list, _, _ = strings.Cut(list, ".\n")
	got := strings.Fields(list)
	want := append(append([]string(nil), order...), "all")
	if !slices.Equal(got, want) {
		t.Errorf("doc comment lists\n  %v\nwant (order + all)\n  %v", got, want)
	}
}
