package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/devcycle"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// matrixSubjects is the paper matrix both matrix workloads run, in
// corpus (Table 2) order: the paper's headline PyKokkos subject 02 and
// two subjects each of RapidJSON and OpenCV. The count is odd on
// purpose: the cells' median and the Yalla cells' median then fall in
// the middle of one subject's samples rather than on the gap between
// two subjects, where with six subjects they spread up to 9% across
// runs. The Boost.Asio subject chat_server is left out: its cached
// translation units alone hold about 400 MB, and its 1.3 s cold row
// would make up 40% of a cold pass.
var matrixSubjects = []string{"02", "archiver", "condense", "drawing", "laplace"}

// matrixJobs is the worker-pool width of every matrix pass. With two
// workers a cell's wall time depends on which cell shares the machine
// with it and a pass's length on the seeded feed order: across seeds,
// per-cell percentiles spread 9-19% and pass times 7%. One worker
// leaves the second core to the preprocessor's prelexing helpers and
// the GC, and makes a pass the sum of its cells.
const matrixJobs = 1

// warmupSubject is the matrix's cheapest subject; matrix-cold's set-up
// runs it once cold.
const warmupSubject = "condense"

// loadMatrix generates the matrix's subjects, in matrixSubjects order.
func loadMatrix() ([]*corpus.Subject, error) {
	pool := append(corpus.PyKokkosSubjects(), corpus.RapidJSONSubjects()...)
	pool = append(pool, corpus.OpenCVSubjects()...)
	byName := map[string]*corpus.Subject{}
	for _, s := range pool {
		byName[s.Name] = s
	}
	out := make([]*corpus.Subject, 0, len(matrixSubjects))
	for _, name := range matrixSubjects {
		s := byName[name]
		if s == nil {
			return nil, fmt.Errorf("corpus has no subject %q", name)
		}
		out = append(out, s)
	}
	return out, nil
}

// goldenRows holds the committed paper CSVs: file → subject → row, with
// the header row under the empty subject.
type goldenRows map[string]map[string]string

func csvRows(content string) map[string]string {
	rows := map[string]string{}
	for i, line := range strings.Split(strings.TrimSuffix(content, "\n"), "\n") {
		subject := ""
		if i > 0 {
			subject, _, _ = strings.Cut(line, ",")
		}
		rows[subject] = line
	}
	return rows
}

// loadGolden reads every CSV experiments.CSVs renders from dir.
func loadGolden(dir string) (goldenRows, error) {
	g := goldenRows{}
	for name := range experiments.CSVs(nil) {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("golden CSV: %v", err)
		}
		g[name] = csvRows(string(blob))
	}
	return g, nil
}

// mismatches re-sorts a pass's results to corpus order, renders the
// paper's CSVs from them, and returns the subjects whose row in some
// file differs from the committed one (a differing header blames every
// subject).
func (g goldenRows) mismatches(results []*experiments.SubjectResult) []string {
	rank := map[string]int{}
	for i, name := range matrixSubjects {
		rank[name] = i
	}
	sorted := append([]*experiments.SubjectResult(nil), results...)
	sort.SliceStable(sorted, func(i, j int) bool { return rank[sorted[i].Name] < rank[sorted[j].Name] })
	var bad []string
	rendered := experiments.CSVs(sorted)
	for _, r := range sorted {
		for file, content := range rendered {
			got, want := csvRows(content), g[file]
			have, inGot := got[r.Name]
			exp, inWant := want[r.Name]
			if got[""] != want[""] || inGot != inWant || have != exp {
				bad = append(bad, r.Name+" ("+file+")")
				break
			}
		}
	}
	return bad
}

// checkResults counts a RunAllWith call's subject rows as operations
// and fails the missing and the wrong ones.
func (g goldenRows) checkResults(m *measurement, order []*corpus.Subject, results []*experiments.SubjectResult, err error) []*experiments.SubjectResult {
	m.attempted += len(order)
	var done []*experiments.SubjectResult
	for i, r := range results {
		if r == nil {
			m.fail("%s: no result: %v", order[i].Name, err)
			continue
		}
		done = append(done, r)
	}
	for _, bad := range g.mismatches(done) {
		m.fail("%s: output differs from the committed CSV", bad)
	}
	return done
}

// matrixCold measures full passes with no build cache: what
// cmd/experiments costs a user. Set-up generates the subjects and runs
// the cheapest one cold, which warms the process (interned identifiers,
// runtime) the way any first run does.
func matrixCold(cfg config, pr *probe) (*measurement, error) {
	g, err := loadGolden(cfg.Golden)
	if err != nil {
		return nil, err
	}
	m := &measurement{}
	var subjects []*corpus.Subject
	for i := 0; i < cfg.setups(); i++ {
		start := time.Now()
		if subjects, err = loadMatrix(); err != nil {
			return nil, err
		}
		warm := []*corpus.Subject{subjects[indexOf(matrixSubjects, warmupSubject)]}
		experiments.ResetCache()
		res, err := experiments.RunAllWith(experiments.RunConfig{Jobs: matrixJobs, Subjects: warm})
		m.setups = append(m.setups, time.Since(start))
		g.checkResults(m, warm, res, err)
	}
	measureMatrix(cfg, pr, m, subjects, nil, g)
	return m, nil
}

// matrixWarm measures full passes against a build cache that one
// untimed pass primed. Every translation unit hits the cache, so a pass
// costs the cache read path, the substitution pipeline the cache does
// not cover, and GC over the large live cache.
func matrixWarm(cfg config, pr *probe) (*measurement, error) {
	g, err := loadGolden(cfg.Golden)
	if err != nil {
		return nil, err
	}
	m := &measurement{}
	var (
		subjects []*corpus.Subject
		bc       *buildcache.Cache
	)
	for i := 0; i < cfg.setups(); i++ {
		bc = nil // the previous set-up's cache is garbage before the next fills
		start := time.Now()
		if subjects, err = loadMatrix(); err != nil {
			return nil, err
		}
		bc = buildcache.New()
		experiments.ResetCache()
		res, err := experiments.RunAllWith(experiments.RunConfig{
			Jobs: matrixJobs, Subjects: subjects, Cache: bc,
		})
		m.setups = append(m.setups, time.Since(start))
		g.checkResults(m, subjects, res, err)
	}
	measureMatrix(cfg, pr, m, subjects, bc, g)
	return m, nil
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}

// measureMatrix runs passes for the window: each pass feeds the
// subjects in a fresh seeded order through experiments.RunAllWith, and
// checks its output against the committed CSVs.
func measureMatrix(cfg config, pr *probe, m *measurement, subjects []*corpus.Subject, bc *buildcache.Cache, g goldenRows) {
	var run *obs.Obs
	if pr != nil {
		run = pr.root
		if bc != nil {
			bc.AttachMetrics(run)
		}
	}
	bench := pr.lane("bench")
	m.open(pr, bench, pr.registry())
	rng := rand.New(rand.NewSource(cfg.Seed))
	for start := time.Now(); cfg.more(start, len(m.rounds)); {
		order := append([]*corpus.Subject(nil), subjects...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		experiments.ResetCache()
		sp := bench.Start("bench.pass")
		t0 := time.Now()
		res, err := experiments.RunAllWith(experiments.RunConfig{
			Jobs: matrixJobs, Subjects: order, Cache: bc, Obs: run,
		})
		m.rounds = append(m.rounds, time.Since(t0))
		sp.End()
		for _, r := range g.checkResults(m, order, res, err) {
			for _, mode := range experiments.Modes {
				cell := r.Modes[mode]
				m.ops = append(m.ops, time.Duration(cell.WallNs))
				if mode == devcycle.Yalla {
					m.prepares = append(m.prepares, time.Duration(cell.WallNs))
					m.virtualMs = append(m.virtualMs, cell.CycleMs())
				}
			}
		}
	}
	m.close()
}
