package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/daemon"
	"repro/internal/devcycle"
	"repro/internal/farm"
	"repro/internal/obs"
)

// editSubject is the subject both edit workloads edit: its 6 ms keep
// path and 80 ms re-Prepare give a 20-second run hundreds of samples of
// each.
const editSubject = "archiver"

// devSession is one developer's Yalla session of editSubject.
type devSession struct {
	c    *daemon.Client
	name string
	ed   *editor
}

// openSession creates the session, runs its first (preparing) cycle,
// and adds the inline probe that neutral edits rewrite. Edits go to the
// substituted source (Substitute().ModifiedSources) because the Yalla
// build compiles that file: edits to the original source never reach
// the compiled translation unit in a daemon session.
func openSession(c *daemon.Client, name string) (*devSession, error) {
	subj := corpus.ByName(editSubject)
	if _, err := c.CreateSession(name, editSubject, "yalla"); err != nil {
		return nil, err
	}
	if _, err := c.Cycle(name, ""); err != nil {
		return nil, err
	}
	sub, err := c.Substitute(name, false)
	if err != nil {
		return nil, err
	}
	src, ok := sub.ModifiedSources[subj.MainFile]
	if !ok {
		return nil, fmt.Errorf("substitution produced no source for %s", subj.MainFile)
	}
	srcOrig, err := c.ReadFile(name, src)
	if err != nil {
		return nil, err
	}
	hdr, hdrOrig, err := resolveHeader(c, name, subj)
	if err != nil {
		return nil, err
	}
	ed := &editor{srcPath: src, srcOrig: srcOrig, hdrPath: hdr, hdrOrig: hdrOrig}
	if _, err := c.Edit(name, hdr, ed.header()); err != nil {
		return nil, err
	}
	if _, err := c.Cycle(name, ""); err != nil {
		return nil, err
	}
	return &devSession{c: c, name: name, ed: ed}, nil
}

// resolveHeader finds the subject's substituted header in the session
// tree along the subject's search paths.
func resolveHeader(c *daemon.Client, session string, subj *corpus.Subject) (path, content string, err error) {
	for _, sp := range subj.SearchPaths {
		cand := sp + "/" + subj.Header
		if sp == "." {
			cand = subj.Header
		}
		if content, err := c.ReadFile(session, cand); err == nil {
			return cand, content, nil
		}
	}
	return "", "", fmt.Errorf("cannot resolve header %s of %s", subj.Header, subj.Name)
}

// replay plays the seed's script against the session, a round at a
// time, until cfg's window (begun at start) closes. It records spans on
// lane, which only the calling goroutine may use.
func (s *devSession) replay(cfg config, start time.Time, lane *obs.Obs) *measurement {
	m := &measurement{}
	sc := newScript(cfg.Seed)
	for cfg.more(start, len(m.rounds)) {
		t0 := time.Now()
		for _, k := range sc.next() {
			s.edit(m, k, lane)
		}
		m.rounds = append(m.rounds, time.Since(t0))
	}
	return m
}

// edit makes one scripted save and waits until the session has rebuilt:
// Client.Edit, then Client.Cycle.
func (s *devSession) edit(m *measurement, k editKind, lane *obs.Obs) {
	path, content := s.ed.apply(k)
	m.attempted++
	start := time.Now()
	sp := lane.Start("bench.edit")
	sp.SetStr("kind", k.String())
	er, err := s.c.Edit(s.name, path, content)
	sp.End()
	if err != nil {
		m.fail("%s edit %d: %v", k, s.ed.seq, err)
		return
	}
	saved := time.Now()
	sp = lane.Start("bench.cycle")
	cy, err := s.c.Cycle(s.name, "")
	sp.End()
	if err != nil {
		m.fail("%s edit %d: cycle: %v", k, s.ed.seq, err)
		return
	}
	done := time.Now()
	m.editRPC = append(m.editRPC, saved.Sub(start))
	m.cycleRPC = append(m.cycleRPC, done.Sub(saved))
	if cy.Prepared {
		m.prepares = append(m.prepares, done.Sub(start))
	} else {
		m.ops = append(m.ops, done.Sub(start))
	}
	m.virtualMs = append(m.virtualMs, cy.TotalMs+cy.SetupMs+cy.WrappersMs)
	m.inval.diffMs += er.DiffMs
	m.inval.declsDiffed += er.DeclsDiffed
	switch er.Action {
	case "keep":
		m.inval.keep++
	case "recompile-wrappers":
		m.inval.wrappers++
	case "reprepare":
		m.inval.reprepare++
	}
}

// oneShot is a fresh one-shot Yalla build of the pristine subject: what
// a session must reproduce once its edits are undone.
type oneShot struct {
	times devcycle.Times
	files map[string]string
}

func buildOneShot() (*oneShot, error) {
	subj := corpus.ByName(editSubject)
	st, err := devcycle.PrepareWith(subj, devcycle.Yalla, devcycle.Config{})
	if err != nil {
		return nil, fmt.Errorf("one-shot prepare: %v", err)
	}
	t, err := st.Cycle()
	if err != nil {
		return nil, fmt.Errorf("one-shot cycle: %v", err)
	}
	files := map[string]string{}
	for _, p := range st.FS.Glob(subj.OutDir()) {
		if files[p], err = st.FS.Read(p); err != nil {
			return nil, err
		}
	}
	return &oneShot{times: t, files: files}, nil
}

// audit restores the files the script edited, rebuilds, and compares
// the session's generated files and virtual cycle cost with want.
func (s *devSession) audit(want *oneShot) error {
	if _, err := s.c.Edit(s.name, s.ed.srcPath, s.ed.srcOrig); err != nil {
		return err
	}
	if _, err := s.c.Edit(s.name, s.ed.hdrPath, s.ed.hdrOrig); err != nil {
		return err
	}
	cy, err := s.c.Cycle(s.name, "")
	if err != nil {
		return err
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	if cy.CompileMs != ms(want.times.Compile) || cy.LinkMs != ms(want.times.Link) || cy.RunMs != ms(want.times.Run) {
		return fmt.Errorf("virtual cycle compile/link/run %v/%v/%v ms, one-shot build %v/%v/%v ms",
			cy.CompileMs, cy.LinkMs, cy.RunMs, ms(want.times.Compile), ms(want.times.Link), ms(want.times.Run))
	}
	sub, err := s.c.Substitute(s.name, true)
	if err != nil {
		return err
	}
	if len(sub.Files) != len(want.files) {
		return fmt.Errorf("substitution generated %d files, one-shot build %d", len(sub.Files), len(want.files))
	}
	for p, content := range sub.Files {
		if w, ok := want.files[p]; !ok || w != content {
			return fmt.Errorf("generated %s differs from the one-shot build", p)
		}
	}
	return nil
}

// auditAll audits every session against one one-shot build, counting
// each audit as an operation.
func auditAll(m *measurement, devs []*devSession) error {
	want, err := buildOneShot()
	if err != nil {
		return err
	}
	for _, d := range devs {
		m.attempted++
		if err := d.audit(want); err != nil {
			m.fail("%s audit: %v", d.name, err)
		}
	}
	return nil
}

// daemonRig is an in-process daemon serving on a loopback port.
type daemonRig struct {
	client *daemon.Client
	cancel context.CancelFunc
	done   chan error
}

// startDaemon starts a daemon with yallad's defaults; on a traced run it
// records into pr's tracer and registry, keeping every request's lane.
func startDaemon(pr *probe) (*daemonRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := daemon.Config{Workers: 4, MaxCachedTUs: 4096}
	if pr != nil {
		cfg.Tracer, cfg.Registry, cfg.TraceRetention = pr.tracer, pr.reg, 1<<30
	}
	srv := daemon.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	rig := &daemonRig{client: daemon.NewClient("http://" + ln.Addr().String()), cancel: cancel, done: make(chan error, 1)}
	go func() { rig.done <- srv.Serve(ctx, ln) }()
	return rig, nil
}

// stop drains the daemon and waits until it has stopped.
func (r *daemonRig) stop() {
	r.cancel()
	<-r.done
}

// editStream is one developer: one client, closed loop, over loopback
// to one daemon holding one Yalla session.
func editStream(cfg config, pr *probe) (*measurement, error) {
	m := &measurement{}
	var (
		rig *daemonRig
		dev *devSession
	)
	for i := 0; i < cfg.setups(); i++ {
		if rig != nil {
			rig.stop()
		}
		start := time.Now()
		var err error
		if rig, err = startDaemon(pr); err != nil {
			return nil, err
		}
		if dev, err = openSession(rig.client, "dev"); err != nil {
			rig.stop()
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start))
	}
	defer rig.stop()

	lane := pr.lane("client 1")
	m.open(pr, lane, pr.registry())
	m.merge(dev.replay(cfg, time.Now(), lane))
	m.close()
	if err := auditAll(m, []*devSession{dev}); err != nil {
		return nil, err
	}
	return m, nil
}

// farmTeam is two developers on a three-node farm: each has a session
// the router places on its own node, and both replay the same script at
// once, each in a closed loop, so they contend for the fleet's shared
// cache and its leases.
func farmTeam(cfg config, pr *probe) (*measurement, error) {
	const devCount = 2
	m := &measurement{}
	var (
		f    *farm.Farm
		devs []*devSession
	)
	for i := 0; i < cfg.setups(); i++ {
		if f != nil {
			f.Stop()
		}
		start := time.Now()
		var err error
		if f, err = farm.StartLocal(farm.LocalConfig{Nodes: 3}); err != nil {
			return nil, err
		}
		c := daemon.NewClient(f.RouterURL)
		devs = devs[:0]
		for _, name := range spreadSessions(f, devCount) {
			d, err := openSession(c, name)
			if err != nil {
				f.Stop()
				return nil, err
			}
			devs = append(devs, d)
		}
		m.setups = append(m.setups, time.Since(start))
	}
	defer f.Stop()

	regs := []*obs.Registry{f.RouterReg, f.CacheReg}
	for _, n := range f.Nodes {
		regs = append(regs, n.Registry)
	}
	m.open(pr, pr.lane("bench"), regs...)
	got := make([]*measurement, len(devs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, d := range devs {
		lane := pr.lane(fmt.Sprintf("client %d", i+1))
		wg.Add(1)
		go func(i int, d *devSession) {
			defer wg.Done()
			got[i] = d.replay(cfg, start, lane)
		}(i, d)
	}
	wg.Wait()
	m.close()
	for _, g := range got {
		m.merge(g)
	}
	if err := auditAll(m, devs); err != nil {
		return nil, err
	}
	return m, nil
}

// spreadSessions names n sessions the router places on n different
// nodes.
func spreadSessions(f *farm.Farm, n int) []string {
	var names []string
	used := map[string]bool{}
	for i := 0; len(names) < n && i < 1000; i++ {
		name := fmt.Sprintf("dev-%d", i)
		if owner := f.Router.Owner(name); !used[owner] {
			used[owner] = true
			names = append(names, name)
		}
	}
	return names
}
