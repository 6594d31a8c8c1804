package preprocessor_test

import (
	"reflect"
	"testing"

	"repro/internal/buildcache"
	preprocessor "repro/internal/cpp/preprocessor"
	"repro/internal/vfs"
)

// includeFS builds a tree that exercises every include edge a token
// cache must not disturb: nested literal includes, an include inside an
// inactive region (never lexed), a computed include, a missing include,
// pragma once, a classic include guard hit twice, and an angled include
// found via a search path.
func includeFS() (*vfs.FS, string) {
	fs := vfs.New()
	fs.Write("main.cpp", `#include "a.hpp"
#include "guard.hpp"
#define WHICH "computed.hpp"
#include WHICH
#include "guard.hpp"
#include "missing_on_purpose.hpp"
#include <angle.hpp>
int main() { return A + G + C + N; }
`)
	fs.Write("a.hpp", `#pragma once
#include "b.hpp"
#if 0
#include "dead.hpp"
#endif
#define A 1
`)
	fs.Write("b.hpp", "#define B 2\nint b_decl;\n")
	fs.Write("dead.hpp", "#error never consumed\n")
	fs.Write("guard.hpp", `#ifndef GUARD_HPP
#define GUARD_HPP
#define G 3
#endif
`)
	fs.Write("computed.hpp", "#define C 4\n")
	fs.Write("sys/angle.hpp", "#define N 5\n")
	return fs, "main.cpp"
}

func preprocessWith(t *testing.T, fs *vfs.FS, main string, cache preprocessor.TokenCache) *preprocessor.Result {
	t.Helper()
	p := preprocessor.New(fs, "sys")
	p.Cache = cache
	res, err := p.Preprocess(main)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return res
}

// TestTokenCacheEquivalence pins that the token cache is invisible in
// the Result: tokens, includes, dependency records, LOC — everything —
// must match a cache-less run exactly, whether the cache is cold (it
// lexes and stores every file) or warm (it serves every file).
func TestTokenCacheEquivalence(t *testing.T) {
	fs, main := includeFS()
	want := preprocessWith(t, fs, main, nil)
	cache := buildcache.New()
	for _, name := range []string{"cold", "warm"} {
		t.Run(name, func(t *testing.T) {
			got := preprocessWith(t, fs, main, cache)
			if !reflect.DeepEqual(got.Tokens, want.Tokens) {
				t.Fatal("token stream diverged")
			}
			if !reflect.DeepEqual(got.Includes, want.Includes) {
				t.Errorf("includes %v, want %v", got.Includes, want.Includes)
			}
			if !reflect.DeepEqual(got.MissingIncludes, want.MissingIncludes) {
				t.Errorf("missing %v, want %v", got.MissingIncludes, want.MissingIncludes)
			}
			if !reflect.DeepEqual(got.AbsentDeps, want.AbsentDeps) {
				t.Errorf("absent deps %v, want %v", got.AbsentDeps, want.AbsentDeps)
			}
			if !reflect.DeepEqual(got.DirectDeps, want.DirectDeps) {
				t.Errorf("direct deps %v, want %v", got.DirectDeps, want.DirectDeps)
			}
			if got.LOC != want.LOC {
				t.Errorf("LOC %d, want %d", got.LOC, want.LOC)
			}
		})
	}
}

// TestSharedTokenCacheConcurrent runs many preprocessor instances at
// once over one shared build cache, the shape the -race detector needs
// to catch unsynchronized sharing of cached streams.
func TestSharedTokenCacheConcurrent(t *testing.T) {
	fs, main := includeFS()
	want := preprocessWith(t, fs, main, nil)
	cache := buildcache.New()

	const runs = 8
	errs := make(chan error, runs)
	results := make([]*preprocessor.Result, runs)
	for i := 0; i < runs; i++ {
		go func(i int) {
			p := preprocessor.New(fs, "sys")
			p.Cache = cache
			res, err := p.Preprocess(main)
			results[i] = res
			errs <- err
		}(i)
	}
	for i := 0; i < runs; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent Preprocess: %v", err)
		}
	}
	for i, res := range results {
		if !reflect.DeepEqual(res.Tokens, want.Tokens) {
			t.Fatalf("run %d: token stream diverged from the cache-less run", i)
		}
	}
}
