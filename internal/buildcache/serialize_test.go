package buildcache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpp/lexer"
	"repro/internal/cpp/preprocessor"
	"repro/internal/vfs"
)

func TestTokenRoundTrip(t *testing.T) {
	const src = "#define N 3\nint add(int a, int b) { return a + b + N; }\n// done\n"
	toks, err := lexer.Tokenize("a.cpp", src)
	if err != nil {
		t.Fatal(err)
	}
	payload := EncodeTokens(toks)
	got, err := DecodeTokens(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(toks, got) {
		t.Fatalf("round trip differs:\n got %v\nwant %v", got, toks)
	}
	// Same process, same intern tables: symbols and file IDs must have
	// re-interned to identical values.
	for i := range toks {
		if toks[i].Sym != got[i].Sym || toks[i].Pos.File != got[i].Pos.File {
			t.Fatalf("token %d re-interned differently: %+v vs %+v", i, toks[i], got[i])
		}
	}
}

func TestTokenEncodeDeterministic(t *testing.T) {
	toks, err := lexer.Tokenize("a.cpp", "int x = 1; int y = x;\n")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeTokens(toks), EncodeTokens(toks)) {
		t.Fatal("encoding is not deterministic")
	}
}

// realTU preprocesses a small program that populates every Result
// field, and returns the TU plus its manifest.
func realTU(t *testing.T) (*TU, []Dep) {
	t.Helper()
	fs := vfs.New()
	fs.Write("main.cpp", "#include \"a.hpp\"\n#include <missing.h>\nint main() { return N + a(); }\n")
	fs.Write("lib/a.hpp", "#pragma once\n#define N 3\n#define SQ(x) ((x)*(x))\nint a();\nint nine = SQ(N);\n")
	res, err := preprocessor.New(fs, "lib").Preprocess("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MacroDefs) == 0 || len(res.MacroUses) == 0 {
		t.Fatal("test program recorded no macros")
	}
	if len(res.MissingIncludes) == 0 || len(res.AbsentDeps) == 0 {
		t.Fatal("test program exercised no negative probes")
	}
	return &TU{Result: res}, Manifest(fs, "main.cpp", res)
}

func TestTURoundTrip(t *testing.T) {
	tu, deps := realTU(t)
	payload, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	got, gotDeps, err := DecodeTU(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tu.Result, got.Result) {
		t.Fatalf("preprocessor result differs after round trip:\n got %+v\nwant %+v", got.Result, tu.Result)
	}
	if !reflect.DeepEqual(deps, gotDeps) {
		t.Fatalf("manifest differs after round trip:\n got %+v\nwant %+v", gotDeps, deps)
	}
	if got.tree.Load() != nil {
		t.Fatal("decode parsed eagerly; the AST must be lazy")
	}
	if got.Aux != nil {
		t.Fatal("no codec matched, so Aux must decode to nil")
	}
	unit := got.Unit(nil)
	if unit == nil {
		t.Fatal("Unit() did not re-parse the decoded stream")
	}
	if again := got.Unit(nil); again != unit {
		t.Fatal("Unit() re-parsed instead of memoizing")
	}
	want := tu.Unit(nil)
	if len(unit.Decls) != len(want.Decls) {
		t.Fatalf("lazy re-parse found %d decls, builder had %d", len(unit.Decls), len(want.Decls))
	}
}

// testAux exercises the codec registry without depending on any real
// Aux type; the blob is the value byte repeated three times so the
// decoder can detect tampering.
type testAux struct{ V byte }

func init() {
	RegisterAux(AuxCodec{
		Name: "buildcache.testaux/1",
		Encode: func(aux any) ([]byte, bool) {
			ta, ok := aux.(testAux)
			if !ok {
				return nil, false
			}
			return []byte{ta.V, ta.V, ta.V}, true
		},
		Decode: func(blob []byte) (any, error) {
			if len(blob) != 3 || blob[0] != blob[1] || blob[1] != blob[2] {
				return nil, fmt.Errorf("malformed testaux blob %v", blob)
			}
			return testAux{V: blob[0]}, nil
		},
	})
}

func TestTUAuxRoundTrip(t *testing.T) {
	tu, deps := realTU(t)
	tu.Aux = testAux{V: 7}
	payload, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeTU(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Aux != (testAux{V: 7}) {
		t.Fatalf("Aux did not round trip: %#v", got.Aux)
	}

	// An Aux type no codec claims is dropped at encode time, not an
	// error: the receiver re-derives.
	tu.Aux = struct{ X int }{1}
	payload, err = EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err = DecodeTU(payload); err != nil || got.Aux != nil {
		t.Fatalf("unclaimed Aux: got %#v, err %v; want nil, nil", got.Aux, err)
	}
}

// TestTUAuxUnknownCodecDegrades simulates a receiving node without the
// sender's codec: the entry must still adopt, with a nil Aux.
func TestTUAuxUnknownCodecDegrades(t *testing.T) {
	tu, deps := realTU(t)
	tu.Aux = testAux{V: 3}
	payload, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	auxMu.Lock()
	saved := auxCodecs
	auxCodecs = nil
	auxMu.Unlock()
	defer func() {
		auxMu.Lock()
		auxCodecs = saved
		auxMu.Unlock()
	}()
	got, _, err := DecodeTU(payload)
	if err != nil {
		t.Fatalf("unknown codec must degrade to nil Aux, got error: %v", err)
	}
	if got.Aux != nil {
		t.Fatalf("Aux = %#v, want nil without the codec", got.Aux)
	}
}

// TestTUAuxCorruptBlobRejected swaps in a codec whose blob the decoder
// rejects: a registered codec failing on its own name is corruption,
// and the whole payload must be refused.
func TestTUAuxCorruptBlobRejected(t *testing.T) {
	tu, deps := realTU(t)
	tu.Aux = testAux{V: 0xEB} // three 0xEB bytes: a needle ASCII payloads can't contain
	payload, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one aux byte and re-seal the integrity trailer so only the
	// codec can notice.
	broken := append([]byte(nil), payload[:len(payload)-hashLen]...)
	at := bytes.Index(broken, []byte{0xEB, 0xEB, 0xEB})
	if at < 0 {
		t.Fatal("aux blob not found in payload")
	}
	broken[at+1] ^= 0xff
	sum := sha256.Sum256(broken)
	broken = append(broken, sum[:]...)
	if _, _, err := DecodeTU(broken); err == nil || !strings.Contains(err.Error(), "aux codec") {
		t.Fatalf("corrupt aux blob decoded; err = %v", err)
	}
}

func TestTUEncodeDeterministic(t *testing.T) {
	tu, deps := realTU(t)
	a, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("TU encoding is not deterministic (map iteration leaked in?)")
	}
}

func TestEncodeTURequiresResult(t *testing.T) {
	if _, err := EncodeTU(&TU{}, nil); err == nil {
		t.Fatal("nil Result must not encode")
	}
	if _, err := EncodeTU(nil, nil); err == nil {
		t.Fatal("nil TU must not encode")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tu, deps := realTU(t)
	tuPayload, err := EncodeTU(tu, deps)
	if err != nil {
		t.Fatal(err)
	}
	toks, err := lexer.Tokenize("a.cpp", "int x;\n")
	if err != nil {
		t.Fatal(err)
	}
	tokPayload := EncodeTokens(toks)

	check := func(name string, payload []byte, decodeTok bool, wantErr string) {
		t.Helper()
		var derr error
		if decodeTok {
			_, derr = DecodeTokens(payload)
		} else {
			_, _, derr = DecodeTU(payload)
		}
		if derr == nil {
			t.Fatalf("%s: corrupt payload decoded cleanly", name)
		}
		if wantErr != "" && !strings.Contains(derr.Error(), wantErr) {
			t.Fatalf("%s: err = %v, want substring %q", name, derr, wantErr)
		}
	}

	// Bit flips anywhere in the body fail the integrity hash.
	for _, at := range []int{0, 5, len(tokPayload) / 2, len(tokPayload) - hashLen - 1} {
		flipped := append([]byte(nil), tokPayload...)
		flipped[at] ^= 0x40
		check("tok bit flip", flipped, true, "integrity hash")
	}
	flipped := append([]byte(nil), tuPayload...)
	flipped[len(tuPayload)/3] ^= 0x01
	check("tu bit flip", flipped, false, "integrity hash")

	// A flipped trailer byte is the same rejection from the other side.
	flipped = append([]byte(nil), tuPayload...)
	flipped[len(flipped)-1] ^= 0xff
	check("tu trailer flip", flipped, false, "integrity hash")

	// Truncations: mid-body fails the hash, shorter than the fixed
	// framing fails the length check.
	check("tok truncated body", tokPayload[:len(tokPayload)-hashLen-3], true, "")
	check("tu truncated body", tuPayload[:len(tuPayload)/2], false, "")
	check("tiny", tokPayload[:7], true, "truncated")
	check("empty", nil, true, "truncated")

	// A valid payload of the wrong kind is rejected by magic, not
	// misdecoded: namespaces can never cross.
	check("tok decoded as TU", tokPayload, false, "magic")
	check("tu decoded as tokens", tuPayload, true, "magic")
}
