package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// memBackend is an in-process remote cache tier: every lease is granted
// and every put is kept.
type memBackend struct {
	mu sync.Mutex
	m  map[string][]byte
}

func (b *memBackend) Get(ns, key string) ([]byte, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.m[ns+"/"+key]
	return p, ok, nil
}

func (b *memBackend) Put(ns, key string, payload []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[ns+"/"+key] = payload
	return nil
}

func (b *memBackend) Lease(ns, key string) (buildcache.LeaseState, error) {
	return buildcache.LeaseGranted, nil
}

func (b *memBackend) Unlease(ns, key string) error { return nil }

// leakFS is a project whose source expands a macro the substituted
// header defines: the gate's odr-macro-leak pass must refuse it, which
// needs the preprocessor's macro records.
func leakFS() *vfs.FS {
	fs := vfs.New()
	fs.Write("lib/big.hpp", `#pragma once
#define BIG_SCALE 4
namespace big { int scaled(int v); }
`)
	fs.Write("src/main.cpp", `#include "big.hpp"
int main() { return big::scaled(BIG_SCALE); }
`)
	return fs
}

// TestRemoteAdoptedUnitKeepsGateWhole has node A build and publish each
// translation unit to a shared remote tier and node B adopt them. An
// adopted entry carries no tree (Unit re-parses it) and gets its macro
// records from the wire format; the gate must still report exactly what
// a local build reports, and the generated files must be byte-identical.
// Node B builds nothing, so every parse it records is a Unit re-parse:
// one per adopted source, however many times the tool and its gate read
// the tree.
func TestRemoteAdoptedUnitKeepsGateWhole(t *testing.T) {
	s := corpus.ByName("condense")
	for _, c := range []viewCase{
		{name: "leak", header: "big.hpp", paths: []string{"lib", "src"},
			sources: []string{"src/main.cpp"}, fs: leakFS()},
		{name: s.Name, header: s.Header, paths: s.SearchPaths, sources: s.Sources, fs: s.FS},
	} {
		local := c.outcome(t, nil, false)
		backend := &memBackend{m: map[string][]byte{}}
		nodeA, nodeB := buildcache.New(), buildcache.New()
		nodeA.Remote, nodeB.Remote = backend, backend
		if got := c.outcome(t, nodeA, false); got != local {
			t.Fatalf("%s: node A differs from a local build:\n%s\nvs\n%s", c.name, got, local)
		}
		reg := obs.NewRegistry()
		b := c
		b.o = obs.New(nil, reg)
		if got := b.outcome(t, nodeB, false); got != local {
			t.Errorf("%s: node B (adopted units) differs from a local build:\n%s\nvs\n%s", c.name, got, local)
		}
		if st := nodeB.Stats(); st.RemoteTUHits != uint64(len(c.sources)) || st.TUMisses != 0 {
			t.Errorf("%s: node B stats %+v, want every source unit adopted and none built", c.name, st)
		}
		if n := reg.Counter("parser.units").Value(); n != uint64(len(c.sources)) {
			t.Errorf("%s: node B parsed %d units, want each of its %d adopted sources once, through Unit", c.name, n, len(c.sources))
		}
		if c.name == "leak" && !strings.Contains(local, "[odr-macro-leak]") {
			t.Errorf("leak fixture was not refused for its macro:\n%s", local)
		}
	}
}
