package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/corpus"
	"repro/internal/daemon"
	"repro/internal/inval"
)

// ------------------------------------------------------------ incremental
//
// The incremental oracle is the differential proof behind early cutoff:
// it drives a daemon session through a deterministic stream of header
// edits — comment appends, inline-body rewrites, unused-declaration
// adds, macro definitions, touch-only saves — and after EVERY edit
// demands that the generated artifacts the session is still using are
// byte-identical to a cold one-shot substitution over an equivalent
// overlay. A benign edit the decl-level diff proved interface-neutral
// keeps the Prepare-time artifacts live without rerunning the tool;
// if those kept bytes ever differ from what a fresh run would produce,
// the cutoff adopted stale output and this oracle catches it.
//
// Source-file edits are deliberately absent from the stream: they are
// non-structural, never consult the invalidation planner, and the
// build cache's dependency manifests own their rebuild story.

// incrementalEditKinds is the stream alphabet, selected per step by the
// seeded generator.
var incrementalEditKinds = []string{"comment", "body", "decl", "macro", "touch"}

// incrementalOracle replays a seeded header-edit stream against a live
// session and byte-compares its generated files with a cold build after
// every step. It also pins the planner's per-kind contract when the
// header parses in isolation: benign kinds must score an early cutoff,
// macro edits must invalidate, and touch-only saves must change nothing.
func incrementalOracle(res *Result, s *corpus.Subject, opt Options) {
	seed := opt.IncrementalSeed
	if seed == 0 {
		seed = 1
	}
	edits := opt.IncrementalEdits
	if edits <= 0 {
		edits = 8
	}

	srv := daemon.New(daemon.Config{Workers: 2})
	sess, err := srv.CreateSessionFor("inc-"+s.Name, s, "yalla")
	if err != nil {
		res.addf("incremental", "create session: %v", err)
		return
	}
	ctx := context.Background()
	if _, err := sess.Cycle(ctx, nil, ""); err != nil {
		res.addf("incremental", "initial cycle: %v", err)
		return
	}

	hdrPath := ""
	for _, cand := range s.HeaderPaths() {
		if _, err := sess.ReadFile(cand); err == nil {
			hdrPath = cand
			break
		}
	}
	if hdrPath == "" {
		res.addf("incremental", "cannot resolve header %q in session tree", s.Header)
		return
	}

	// mirror tracks every edit so the cold build sees the same overlay.
	mirror := map[string]string{}
	read := func(p string) string {
		if c, ok := mirror[p]; ok {
			return c
		}
		c, _ := sess.ReadFile(p)
		return c
	}
	// The per-kind planner contract is only enforceable when the header
	// parses in isolation; otherwise every edit is (soundly) conservative.
	hdrOK := inval.Snapshot(hdrPath, read(hdrPath)).OK

	rng := rand.New(rand.NewSource(seed))
	probeRet := -1 // last constant in the probe body, -1 = not added yet
	warm := true   // last cycle succeeded; planner expectations apply
	for i := 0; i < edits; i++ {
		kind := incrementalEditKinds[rng.Intn(len(incrementalEditKinds))]
		content := read(hdrPath)
		switch kind {
		case "comment":
			content += fmt.Sprintf("\n// yf stream comment %d\n", i)
		case "body":
			if probeRet < 0 {
				// First body edit plants the probe — an unused inline
				// definition, i.e. a decl add for the planner.
				kind = "decl"
				content += "\ninline int yf_stream_probe() { return 0; }\n"
				probeRet = 0
			} else {
				content = strings.Replace(content,
					fmt.Sprintf("yf_stream_probe() { return %d; }", probeRet),
					fmt.Sprintf("yf_stream_probe() { return %d; }", i), 1)
				probeRet = i
			}
		case "decl":
			content += fmt.Sprintf("\ninline int yf_stream_fn_%d() { return %d; }\n", i, i)
		case "macro":
			content += fmt.Sprintf("\n#define YF_STREAM_%d %d\n", i, i)
		case "touch":
			// identical content: a no-op save
		}

		er := sess.Edit(hdrPath, content)
		mirror[hdrPath] = content
		if warm && hdrOK {
			switch kind {
			case "touch":
				if er.Changed {
					res.addf("incremental", "edit %d: touch-only save reported changed", i)
				}
			case "comment", "body":
				if !er.EarlyCutoff {
					res.addf("incremental", "edit %d (%s): benign header edit not early-cutoff (action %q: %s)",
						i, kind, er.Action, er.Reason)
				}
			case "macro":
				if !er.Invalidated {
					res.addf("incremental", "edit %d: macro edit did not invalidate (action %q)", i, er.Action)
				}
			}
		}

		_, cyErr := sess.Cycle(ctx, nil, "")

		fsCold := s.FS.Overlay()
		for p, c := range mirror {
			fsCold.Write(p, c)
		}
		sub, coldErr := substitute(fsCold, s, nil, "")
		switch {
		case cyErr != nil && coldErr != nil:
			// Both paths reject the tree the same way; stay consistent.
			warm = false
			continue
		case cyErr != nil:
			res.addf("incremental", "edit %d (%s): session cycle failed (%v) but cold build succeeds", i, kind, cyErr)
			warm = false
			continue
		case coldErr != nil:
			res.addf("incremental", "edit %d (%s): cold build failed (%v) but session cycle succeeds", i, kind, coldErr)
			warm = true
			continue
		}
		warm = true
		for _, p := range generatedPaths(sub) {
			want, err := fsCold.Read(p)
			if err != nil {
				res.addf("incremental", "edit %d (%s): cold build missing %q", i, kind, p)
				return
			}
			got, err := sess.ReadFile(p)
			if err != nil {
				res.addf("incremental", "edit %d (%s): session missing generated file %q", i, kind, p)
				return
			}
			if got != want {
				res.addf("incremental", "edit %d (%s, action %q): session %q diverged from cold one-shot build",
					i, kind, er.Action, p)
				return
			}
		}
	}
}
