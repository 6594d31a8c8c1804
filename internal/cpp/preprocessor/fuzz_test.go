package preprocessor

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/vfs"
)

// FuzzPreprocessor runs arbitrary source through the full preprocessor
// (directives, macro expansion, conditionals). Errors are fine; panics
// and runaway expansion are bugs. A run that captures the file's
// preamble must equal the plain run, and a run of the file with a line
// appended, resumed from that preamble, must equal a fresh run of it.
func FuzzPreprocessor(f *testing.F) {
	f.Add("#define A(x) #x\nconst char* s = A(hi);")
	f.Add("#define CAT(a, b) a##b\nint CAT(x, 1);")
	f.Add("#if defined(X) && !defined(Y)\nint a;\n#else\nint b;\n#endif")
	f.Add("#define REC REC\nint REC;")
	f.Add("#define M(...) f(__VA_ARGS__)\nM(1, 2, 3);")
	f.Add("#def\\\nine V 7\nint x = V;")
	f.Add("#include \"missing.hpp\"\nint x;")
	f.Add("#if 1 + 2 * 3 > (4 << 1)\nint yes;\n#endif")
	f.Add("#pragma once\n#ifdef A\n#ifdef B\n#endif\n#endif")
	f.Add("#define STR(x) #x\nconst char* s = STR();")
	f.Add("#define N __COUNTER__\n#ifdef N\n#define M N + N\n#endif\nint a = M;")
	f.Add("#define V 1\n#undef V\n#define V 2")
	f.Fuzz(func(t *testing.T, src string) {
		fs := vfs.New()
		fs.Write("fuzz.cpp", src)
		p := New(fs)
		res, err := p.Preprocess("fuzz.cpp")
		if err == nil && res == nil {
			t.Fatal("nil result with nil error")
		}
		captured, state, cerr := New(fs).PreprocessFrom("fuzz.cpp", nil, nil)
		sameRun(t, "capturing run", captured, cerr, res, err)
		if state == nil || slices.Contains(state.Includes(), "fuzz.cpp") {
			return // no preamble, or one that reads the main file itself
		}
		edited := vfs.New()
		edited.Write("fuzz.cpp", src+"\nint appended_ = __LINE__ + __COUNTER__;\n")
		want, werr := New(edited).Preprocess("fuzz.cpp")
		got, resumed, gerr := New(edited).PreprocessFrom("fuzz.cpp", state, captured.Tokens[:state.Tokens()])
		if resumed != state {
			t.Fatal("a line appended after the preamble did not resume")
		}
		sameRun(t, "resumed run", got, gerr, want, werr)
	})
}

func sameRun(t *testing.T, what string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs:\ngot  %+v\nwant %+v", what, got, want)
	}
}
