package pch

import (
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/cpp/token"
	"repro/internal/vfs"
)

func buildFS() *vfs.FS {
	fs := vfs.New()
	fs.Write("lib/core.hpp", `#pragma once
#include <detail.hpp>
namespace lib { template <class T> class Thing { T v; }; }
`)
	fs.Write("lib/detail.hpp", "#pragma once\nnamespace lib { class Detail {}; }")
	return fs
}

func TestBuildCoversTransitiveIncludes(t *testing.T) {
	p, err := Build(buildFS(), "lib/core.hpp", []string{"lib"}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Covers("lib/core.hpp") || !p.Covers("lib/detail.hpp") {
		t.Fatalf("coverage = %v", p.Files)
	}
	if p.Covers("main.cpp") {
		t.Fatal("should not cover main")
	}
	if p.SizeBytes() == 0 || p.LOC == 0 {
		t.Fatalf("pch = %+v", p)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	toks := []token.Token{
		{Kind: token.Keyword, Text: "class", Pos: token.Pos{Offset: 0}},
		{Kind: token.Identifier, Text: "X", Pos: token.Pos{Offset: 6}},
		{Kind: token.Semi, Text: ";", Pos: token.Pos{Offset: 7}},
		{Kind: token.EOF},
	}
	got, err := Deserialize(Serialize(toks))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(toks) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range toks {
		if got[i].Kind != toks[i].Kind || got[i].Text != toks[i].Text ||
			got[i].Pos.Offset != toks[i].Pos.Offset {
			t.Fatalf("token %d = %+v, want %+v", i, got[i], toks[i])
		}
	}
}

func TestDeserializeBadMagic(t *testing.T) {
	if _, err := Deserialize([]byte("NOPE")); err == nil {
		t.Fatal("want magic error")
	}
	if _, err := Deserialize(nil); err == nil {
		t.Fatal("want error on empty blob")
	}
}

func TestDeserializeTruncated(t *testing.T) {
	p, err := Build(buildFS(), "lib/core.hpp", []string{"lib"}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := Serialize(p.Tokens)
	for _, cut := range []int{5, 8, len(blob) / 2} {
		if cut >= len(blob) {
			continue
		}
		if _, err := Deserialize(blob[:cut]); err == nil {
			t.Fatalf("want error for blob truncated at %d", cut)
		}
	}
}

func TestPropertySerializeRoundTrips(t *testing.T) {
	f := func(texts []string) bool {
		var toks []token.Token
		for i, s := range texts {
			toks = append(toks, token.Token{Kind: token.Identifier, Text: s, Pos: token.Pos{Offset: int32(i)}})
		}
		got, err := Deserialize(Serialize(toks))
		if err != nil || len(got) != len(toks) {
			return false
		}
		for i := range toks {
			if got[i].Text != toks[i].Text {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSizeBytesIsSerializedLength pins the modeled on-disk size, which
// Build computes without serializing, to the length of the format
// Serialize defines, for every corpus subject's header.
func TestSizeBytesIsSerializedLength(t *testing.T) {
	for _, s := range corpus.All() {
		hdr := ""
		for _, sp := range s.SearchPaths {
			cand := sp + "/" + s.Header
			if sp == "." {
				cand = s.Header
			}
			if s.FS.Exists(cand) {
				hdr = cand
				break
			}
		}
		p, err := Build(s.FS, hdr, s.SearchPaths, nil, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if got, want := p.SizeBytes(), len(Serialize(p.Tokens)); got != want {
			t.Errorf("%s: SizeBytes() = %d, serialized length %d", s.Name, got, want)
		}
	}
}

func TestBuildMissingHeader(t *testing.T) {
	if _, err := Build(vfs.New(), "nope.hpp", nil, nil, nil, nil); err == nil {
		t.Fatal("want error")
	}
}
