package lexer

import (
	"strings"
	"testing"

	"repro/internal/corpus"
)

var benchSrc = strings.Repeat(`
template <class T, class Layout> class View {
public:
  View(const char* label, int n0, int n1);
  T& operator()(int i, int j) const { return data_[i * n1_ + j]; }
private:
  T* data_;
  int n1_;
};
inline double norm(const View<double, LayoutRight>& v, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; i++) { acc += v(i, 0) * v(i, 0); }
  return acc; // 0x1p-3 and "strings" appear too
}
`, 64)

func BenchmarkTokenize(b *testing.B) {
	b.SetBytes(int64(len(benchSrc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Tokenize("bench.cpp", benchSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// lexFileSrc is the corpus's heaviest real header — the input
// BenchmarkLexFile and the CI allocation guard run against.
func lexFileSrc(tb testing.TB) string {
	src, err := corpus.All()[0].FS.Read("kokkos/Kokkos_Core.hpp")
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

// BenchmarkLexFile lexes the corpus's largest header end to end; its
// MB/s and allocs/op are the frontend hot-path record (EXPERIMENTS.md
// § "Frontend hot path"), and TestLexFileAllocsBudget holds the allocs.
func BenchmarkLexFile(b *testing.B) {
	src := lexFileSrc(b)
	// Warm the global interner: the first lex of a file pays a one-time
	// allocation per new identifier spelling, which would dominate a
	// single-iteration run (CI uses -benchtime 1x) and hide the
	// steady-state cost this benchmark guards.
	if _, err := Tokenize("kokkos/Kokkos_Core.hpp", src); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Tokenize("kokkos/Kokkos_Core.hpp", src); err != nil {
			b.Fatal(err)
		}
	}
}

// lexFileAllocsBudget is the committed allocation ceiling for one
// BenchmarkLexFile iteration. The slice regrowth chain plus the handful
// of fixed-cost allocations (lexer, line table) land well under it; a
// regression that reintroduces per-token allocation blows through it by
// orders of magnitude. CI runs this test on every push.
const lexFileAllocsBudget = 40

func TestLexFileAllocsBudget(t *testing.T) {
	res := testing.Benchmark(BenchmarkLexFile)
	if allocs := res.AllocsPerOp(); allocs > lexFileAllocsBudget {
		t.Fatalf("BenchmarkLexFile allocates %d allocs/op, budget is %d — the lexer hot path regressed",
			allocs, lexFileAllocsBudget)
	}
}
