package devcycle

import (
	"testing"

	"repro/internal/corpus"
)

func prepare(t *testing.T, name string, mode Mode) *Setup {
	t.Helper()
	s := corpus.ByName(name)
	if s == nil {
		t.Fatalf("no subject %q", name)
	}
	st, err := Prepare(s, mode)
	if err != nil {
		t.Fatalf("Prepare(%s, %v): %v", name, mode, err)
	}
	return st
}

func TestYallaCompileFasterThanDefault(t *testing.T) {
	def := prepare(t, "02", Default)
	yal := prepare(t, "02", Yalla)
	dc, err := def.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	yc, err := yal.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if yc.Compile*10 > dc.Compile {
		t.Fatalf("yalla compile %v not ≫ default %v (paper: 38.2×)", yc.Compile, dc.Compile)
	}
}

func TestPCHBetweenDefaultAndYalla(t *testing.T) {
	def := prepare(t, "02", Default)
	p := prepare(t, "02", PCH)
	yal := prepare(t, "02", Yalla)
	dc, _ := def.Cycle()
	pc, _ := p.Cycle()
	yc, _ := yal.Cycle()
	if !(yc.Compile < pc.Compile && pc.Compile < dc.Compile) {
		t.Fatalf("ordering violated: yalla %v, pch %v, default %v", yc.Compile, pc.Compile, dc.Compile)
	}
}

func TestYallaPaysExtraLink(t *testing.T) {
	def := prepare(t, "team_policy", Default)
	yal := prepare(t, "team_policy", Yalla)
	dc, _ := def.Cycle()
	yc, _ := yal.Cycle()
	if yc.Link <= dc.Link {
		t.Fatalf("yalla link %v <= default %v; wrappers.o must add cost (§5.4)", yc.Link, dc.Link)
	}
}

func TestYallaRunsSlower(t *testing.T) {
	def := prepare(t, "02", Default)
	yal := prepare(t, "02", Yalla)
	dc, _ := def.Cycle()
	yc, _ := yal.Cycle()
	if yc.Run <= dc.Run {
		t.Fatalf("yalla run %v <= default %v; non-inlined wrappers must slow the kernel (Fig. 9)", yc.Run, dc.Run)
	}
	pchSt := prepare(t, "02", PCH)
	pc, _ := pchSt.Cycle()
	if pc.Run != dc.Run {
		t.Fatalf("PCH run %v != default %v; PCH must not change generated code", pc.Run, dc.Run)
	}
}

func TestDevCycleSpeedupShape(t *testing.T) {
	// PyKokkos subjects: YALLA wins the cycle (Fig. 8).
	def := prepare(t, "02", Default)
	yal := prepare(t, "02", Yalla)
	dc, _ := def.Cycle()
	yc, _ := yal.Cycle()
	speedup := float64(dc.Total()) / float64(yc.Total())
	if speedup < 1.5 {
		t.Fatalf("02 dev-cycle speedup %.2f×, want > 1.5 (paper ≈ 3–5×)", speedup)
	}
}

func TestSetupCostsYalla(t *testing.T) {
	yal := prepare(t, "02", Yalla)
	s := yal.Setup
	if s.Tool <= 0 || s.WrapperCompile <= 0 || s.FirstCompile <= 0 {
		t.Fatalf("setup = %+v", s)
	}
	// Fig. 10: the tool run dominates the initial build and exceeds one
	// default compile.
	def := prepare(t, "02", Default)
	if s.Tool < def.Setup.FirstCompile {
		t.Fatalf("tool time %v < default compile %v (Fig. 10 shape)", s.Tool, def.Setup.FirstCompile)
	}
	if s.PCHBuild != 0 {
		t.Fatal("yalla setup should not build a PCH")
	}
}

func TestSetupCostsPCH(t *testing.T) {
	p := prepare(t, "02", PCH)
	if p.Setup.PCHBuild <= 0 {
		t.Fatalf("setup = %+v", p.Setup)
	}
	if p.Setup.Tool != 0 || p.Setup.WrapperCompile != 0 {
		t.Fatal("PCH setup should not run the tool")
	}
}

func TestPhasesExposedForFig7(t *testing.T) {
	def := prepare(t, "02", Default)
	if _, err := def.Cycle(); err != nil {
		t.Fatal(err)
	}
	ph := def.Phases()
	if ph.LexParse <= 0 || ph.Backend <= 0 {
		t.Fatalf("phases = %+v", ph)
	}
	st := def.Stats()
	if st.LOC < 50000 || st.Headers < 400 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestModeString(t *testing.T) {
	if Default.String() != "Default" || PCH.String() != "PCH" || Yalla.String() != "Yalla" {
		t.Fatal("mode names")
	}
	if Mode(42).String() != "?" {
		t.Fatal("unknown mode")
	}
}

func TestYallaLTORecoversRunTimeButCostsLink(t *testing.T) {
	yal := prepare(t, "02", Yalla)
	lto := prepare(t, "02", YallaLTO)
	def := prepare(t, "02", Default)
	yc, _ := yal.Cycle()
	lc, _ := lto.Cycle()
	dc, _ := def.Cycle()
	if lc.Run != dc.Run {
		t.Fatalf("LTO run %v != default %v; LTO must recover inlining (§5.4)", lc.Run, dc.Run)
	}
	if lc.Link <= yc.Link {
		t.Fatalf("LTO link %v <= plain yalla link %v; whole-program optimization must cost", lc.Link, yc.Link)
	}
	// The paper's conclusion: the extra link time makes LTO a net loss
	// for the development cycle.
	if lc.Total() <= yc.Total() {
		t.Fatalf("yalla+LTO cycle %v <= yalla cycle %v; paper rejected LTO for this reason", lc.Total(), yc.Total())
	}
}

func TestYallaPCHCutsResidualFrontend(t *testing.T) {
	// drawing keeps a large residual after substitution — the case §6's
	// combination targets.
	yal := prepare(t, "drawing", Yalla)
	combo := prepare(t, "drawing", YallaPCH)
	yc, _ := yal.Cycle()
	cc, _ := combo.Cycle()
	if cc.Compile >= yc.Compile {
		t.Fatalf("yalla+pch compile %v >= yalla %v; residual PCH must help", cc.Compile, yc.Compile)
	}
	if combo.Setup.PCHBuild <= 0 {
		t.Fatal("missing residual PCH build cost")
	}
	// Run time unchanged relative to plain YALLA (same generated code).
	if cc.Run != yc.Run {
		t.Fatalf("yalla+pch run %v != yalla run %v", cc.Run, yc.Run)
	}
}

func TestExtendedModeNames(t *testing.T) {
	if YallaPCH.String() != "Yalla+PCH" || YallaLTO.String() != "Yalla+LTO" {
		t.Fatal("mode names")
	}
}

func TestEditRecompileReflectsChange(t *testing.T) {
	// The point of the cycle: an edit to the source is picked up by the
	// next compile without re-running the tool.
	st := prepare(t, "02", Yalla)
	before, err := st.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	locBefore := st.Stats().LOC

	// Simulate the developer editing the kernel: append a helper.
	main := "yalla_out/02/02.cpp"
	src, err := st.FS.Read(main)
	if err != nil {
		t.Fatal(err)
	}
	st.FS.Write(main, src+`
int edited_helper(int v) {
  int acc = 0;
  for (int i = 0; i < v; i++) { acc += i; }
  return acc;
}
`)
	after, err := st.Cycle()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().LOC <= locBefore {
		t.Fatalf("edit not reflected: LOC %d -> %d", locBefore, st.Stats().LOC)
	}
	if after.Compile <= before.Compile {
		t.Fatalf("larger file should cost more: %v -> %v", before.Compile, after.Compile)
	}
	// Still a tiny fraction of the default compile.
	def := prepare(t, "02", Default)
	dc, _ := def.Cycle()
	if after.Compile*10 > dc.Compile {
		t.Fatalf("post-edit yalla compile %v not ≪ default %v", after.Compile, dc.Compile)
	}
}

func TestRerunOnNewSymbolUnlessPreDeclared(t *testing.T) {
	s := corpus.ByName("team_policy")

	// Without pre-declaration: first use of a new header symbol charges a
	// tool rerun + wrappers recompile (§4.2).
	plain, err := Prepare(s, Yalla)
	if err != nil {
		t.Fatal(err)
	}
	fast, _ := plain.Cycle()
	slow, rerun, err := plain.CycleWithNewSymbol("Kokkos::fence")
	if err != nil {
		t.Fatal(err)
	}
	if !rerun {
		t.Fatal("expected a tool rerun for a new symbol")
	}
	if slow.Compile <= fast.Compile+plain.Setup.Tool/2 {
		t.Fatalf("rerun cycle %v not much slower than fast cycle %v", slow.Compile, fast.Compile)
	}
	// The symbol is now covered; the next growth cycle is fast again.
	again, rerun2, _ := plain.CycleWithNewSymbol("Kokkos::fence")
	if rerun2 || again.Compile >= slow.Compile {
		t.Fatalf("second use should not rerun: %v (rerun=%v)", again.Compile, rerun2)
	}

	// With §6 pre-declaration the growth cycle never pays the rerun.
	pre, err := PrepareWith(s, Yalla, Config{PreDeclare: []string{"Kokkos::fence"}})
	if err != nil {
		t.Fatal(err)
	}
	quick, rerun3, err := pre.CycleWithNewSymbol("Kokkos::fence")
	if err != nil {
		t.Fatal(err)
	}
	if rerun3 {
		t.Fatal("pre-declared symbol must not trigger a rerun")
	}
	if quick.Compile*5 > slow.Compile {
		t.Fatalf("pre-declared cycle %v should be ≪ rerun cycle %v", quick.Compile, slow.Compile)
	}
	// Default mode never reruns the tool.
	def, _ := Prepare(s, Default)
	_, rerunDef, _ := def.CycleWithNewSymbol("Kokkos::fence")
	if rerunDef {
		t.Fatal("default mode has no tool to rerun")
	}
}
