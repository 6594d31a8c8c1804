package main

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

func rounds(seed int64, n int) [][]editKind {
	s := newScript(seed)
	var out [][]editKind
	for i := 0; i < n; i++ {
		out = append(out, s.next())
	}
	return out
}

func TestScriptIsSeeded(t *testing.T) {
	a, b := rounds(7, 20), rounds(7, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different scripts")
	}
	if reflect.DeepEqual(a, rounds(8, 20)) {
		t.Fatal("seeds 7 and 8 gave the same script")
	}
	want := append([]editKind(nil), roundMix...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, r := range a {
		got := append([]editKind(nil), r...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d = %v, want a shuffle of %v", i, r, roundMix)
		}
	}
}

func TestEditorKeepsInterfaceMacros(t *testing.T) {
	e := &editor{srcPath: "src.cpp", srcOrig: "int main();\n", hdrPath: "h.hpp", hdrOrig: "#pragma once\n"}
	var hdr string
	for _, k := range []editKind{editInterface, editNeutral, editBody, editInterface, editNeutral, editComment} {
		path, content := e.apply(k)
		switch k {
		case editBody, editComment:
			if path != "src.cpp" || !strings.HasPrefix(content, "int main();\n") || strings.Count(content, "e2ebench") != 1 {
				t.Fatalf("%s edit wrote %s: %q", k, path, content)
			}
		default:
			if path != "h.hpp" || !strings.HasPrefix(content, "#pragma once\n") || content == hdr {
				t.Fatalf("%s edit wrote %s: %q (previous %q)", k, path, content, hdr)
			}
			hdr = content
		}
	}
	for _, macro := range []string{"E2EBENCH_IFACE_1 ", "E2EBENCH_IFACE_4 "} {
		if !strings.Contains(hdr, macro) {
			t.Errorf("header lost interface edit %s: %q", macro, hdr)
		}
	}
}
