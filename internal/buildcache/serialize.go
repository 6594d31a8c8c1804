package buildcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cpp/preprocessor"
	"repro/internal/cpp/token"
)

// Wire serialization of cache entries for the remote (L2) tier.
//
// Interned identities — token.Symbol and token.FileID — are process
// local, so the wire format carries spellings and file names and the
// decoder re-interns them; two nodes that exchange a payload end up with
// semantically identical tokens even though their intern tables differ.
// ASTs are not serialized: the parser is deterministic over a token
// stream, so an adopted entry can always reconstruct the tree — but
// eagerly re-parsing on every fetch costs almost as much as the compile
// the fetch avoided, so a decoded TU holds no tree and TU.Unit re-parses
// lazily, only for the rare consumer that walks the tree. Aux travels
// instead: callers whose Aux type has a registered AuxCodec (compilesim
// registers its Stats) get their derived statistics back byte-for-byte,
// so the hot path of an adopted entry touches tokens only.
//
// Every payload ends with the SHA-256 of everything before it. Decode
// recomputes and compares, so a truncated or bit-flipped payload — a
// misbehaving cache node, a partial write — is rejected instead of
// silently poisoning the local tier. All sections with map iteration
// are key-sorted, so encoding is deterministic: equal entries produce
// byte-equal payloads on every node.

// Payload magics: 4 bytes of format identity + version. Bump the
// version byte on any incompatible change; decoders reject unknown
// magics, so mixed-version fleets fall back to local builds instead of
// mis-decoding each other's entries. TU version 2 added the Aux section.
var (
	magicTokens = [4]byte{'Y', 'T', 'K', '1'}
	magicTU     = [4]byte{'Y', 'T', 'U', '2'}
)

// ------------------------------------------------------------ aux codecs

// AuxCodec serializes one concrete TU.Aux type for the remote tier.
// Encode reports false when the value is not this codec's type (the
// encoder tries each registered codec in turn); Decode must accept
// exactly what Encode produced. Codec names are part of the wire
// contract: a node that receives an unregistered name adopts the entry
// with a nil Aux and re-derives, so mixed fleets degrade instead of
// failing.
type AuxCodec struct {
	Name   string
	Encode func(aux any) ([]byte, bool)
	Decode func(blob []byte) (any, error)
}

var (
	auxMu     sync.RWMutex
	auxCodecs []AuxCodec
)

// RegisterAux installs an Aux codec (typically from an init function of
// the package owning the Aux type). Registering a duplicate or
// incomplete codec is a programming error and panics.
func RegisterAux(c AuxCodec) {
	if c.Name == "" || c.Encode == nil || c.Decode == nil {
		panic("buildcache: RegisterAux requires a name, an encoder, and a decoder")
	}
	auxMu.Lock()
	defer auxMu.Unlock()
	for _, have := range auxCodecs {
		if have.Name == c.Name {
			panic("buildcache: duplicate aux codec " + c.Name)
		}
	}
	auxCodecs = append(auxCodecs, c)
}

// encodeAux appends the aux section: codec name reference plus blob. An
// empty name records "no aux" — either none was set or no codec claimed
// its type.
func (w *wireWriter) encodeAux(aux any) {
	auxMu.RLock()
	defer auxMu.RUnlock()
	if aux != nil {
		for _, c := range auxCodecs {
			if blob, ok := c.Encode(aux); ok {
				w.strRef(c.Name)
				w.uvarint(uint64(len(blob)))
				w.buf = append(w.buf, blob...)
				return
			}
		}
	}
	w.strRef("")
	w.uvarint(0)
}

// decodeAux reads the aux section. Unknown codec names yield a nil aux
// (the receiver re-derives); a registered codec that rejects its own
// blob is an error, because the integrity hash already passed and the
// payload is simply not what the codec version promises.
func (r *wireReader) decodeAux() (any, error) {
	name, err := r.str()
	if err != nil {
		return nil, err
	}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(r.pos)+n > uint64(len(r.buf)) {
		return nil, fmt.Errorf("buildcache: aux blob truncated")
	}
	blob := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	if name == "" {
		return nil, nil
	}
	auxMu.RLock()
	defer auxMu.RUnlock()
	for _, c := range auxCodecs {
		if c.Name == name {
			aux, err := c.Decode(blob)
			if err != nil {
				return nil, fmt.Errorf("buildcache: aux codec %s: %v", name, err)
			}
			return aux, nil
		}
	}
	return nil, nil
}

// hashLen is the integrity trailer length (SHA-256).
const hashLen = sha256.Size

// ---------------------------------------------------------------- writer

type wireWriter struct {
	buf []byte
	// strings interns every string of the payload into one table;
	// records reference table indices, which both shrinks payloads
	// (spellings repeat constantly in token streams) and makes decode
	// re-interning cheap (each distinct spelling interned once).
	strings map[string]uint64
	order   []string
}

func newWireWriter(magic [4]byte) *wireWriter {
	w := &wireWriter{strings: map[string]uint64{}}
	w.buf = append(w.buf, magic[:]...)
	return w
}

func (w *wireWriter) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *wireWriter) varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

func (w *wireWriter) str(s string) uint64 {
	if i, ok := w.strings[s]; ok {
		return i
	}
	i := uint64(len(w.order))
	w.strings[s] = i
	w.order = append(w.order, s)
	return i
}

func (w *wireWriter) strRef(s string) { w.uvarint(w.str(s)) }

func (w *wireWriter) pos(p token.Pos) {
	w.strRef(p.File.Name())
	w.varint(int64(p.Offset))
	w.varint(int64(p.Line))
	w.varint(int64(p.Col))
}

// Token flag bits.
const (
	tokFlagNewline  = 1 // Token.LeadingNewline
	tokFlagSameFile = 2 // Pos.File equals the previous token's; file ref omitted
)

// tokens writes the stream with position compression: consecutive
// tokens almost always share a file and sit bytes apart, so the file
// reference is elided behind a flag bit and offset/line travel as
// deltas — one-byte varints instead of the three-or-four-byte absolute
// offsets of a megabyte-scale TU. This halves the payload and, because
// varint decode cost scales with encoded bytes, is the difference that
// makes adopting a remote entry cheaper than recompiling it.
func (w *wireWriter) tokens(toks []token.Token) {
	w.uvarint(uint64(len(toks)))
	var prevFile token.FileID
	var prevOff, prevLine int32
	havePrev := false
	for _, t := range toks {
		var flags byte
		if t.LeadingNewline {
			flags |= tokFlagNewline
		}
		sameFile := havePrev && t.Pos.File == prevFile
		if sameFile {
			flags |= tokFlagSameFile
		}
		w.buf = append(w.buf, byte(t.Kind), flags)
		w.strRef(t.Text)
		if !sameFile {
			w.strRef(t.Pos.File.Name())
		}
		w.varint(int64(t.Pos.Offset - prevOff))
		w.varint(int64(t.Pos.Line - prevLine))
		w.varint(int64(t.Pos.Col))
		prevFile, prevOff, prevLine = t.Pos.File, t.Pos.Offset, t.Pos.Line
		havePrev = true
	}
}

// finish appends the string table and the integrity trailer. The table
// travels after the records that reference it; the decoder reads it
// first via the offset recorded here.
func (w *wireWriter) finish() []byte {
	tableAt := uint64(len(w.buf))
	w.uvarint(uint64(len(w.order)))
	for _, s := range w.order {
		w.uvarint(uint64(len(s)))
		w.buf = append(w.buf, s...)
	}
	// Fixed-width table offset so the decoder can find it from the end.
	var off [8]byte
	binary.BigEndian.PutUint64(off[:], tableAt)
	w.buf = append(w.buf, off[:]...)
	sum := sha256.Sum256(w.buf)
	return append(w.buf, sum[:]...)
}

// ---------------------------------------------------------------- reader

type wireReader struct {
	buf     []byte
	pos     int
	strings []string
	// fileIDs/syms memoize interning per string-table entry (0 = not
	// yet interned; only the empty string interns to 0, and it is
	// special-cased). A decoded token stream repeats the same few file
	// names and identifier spellings hundreds of thousands of times,
	// and the per-token lookup inside token.InternFile/token.Intern was
	// the hottest part of decode before this cache — hot enough to make
	// adopting a remote entry cost more than recompiling it.
	fileIDs []token.FileID
	syms    []token.Symbol
}

// openWire verifies the trailer hash and magic and pre-reads the string
// table; every malformed shape maps to a distinct error so corruption
// tests can tell them apart.
func openWire(payload []byte, magic [4]byte) (*wireReader, error) {
	if len(payload) < len(magic)+8+hashLen {
		return nil, fmt.Errorf("buildcache: payload truncated (%d bytes)", len(payload))
	}
	body, trailer := payload[:len(payload)-hashLen], payload[len(payload)-hashLen:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(trailer) {
		return nil, fmt.Errorf("buildcache: payload integrity hash mismatch")
	}
	if string(body[:4]) != string(magic[:]) {
		return nil, fmt.Errorf("buildcache: payload magic %q, want %q", body[:4], magic[:])
	}
	tableAt := binary.BigEndian.Uint64(body[len(body)-8:])
	if tableAt > uint64(len(body)-8) {
		return nil, fmt.Errorf("buildcache: string table offset out of range")
	}
	r := &wireReader{buf: body[:len(body)-8], pos: int(tableAt)}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)) {
		return nil, fmt.Errorf("buildcache: string table count %d exceeds payload", n)
	}
	r.strings = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if uint64(r.pos)+l > uint64(len(r.buf)) {
			return nil, fmt.Errorf("buildcache: string table truncated")
		}
		r.strings = append(r.strings, string(r.buf[r.pos:r.pos+int(l)]))
		r.pos += int(l)
	}
	r.pos = 4 // rewind to the records, past the magic
	return r, nil
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("buildcache: malformed uvarint at %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *wireReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("buildcache: malformed varint at %d", r.pos)
	}
	r.pos += n
	return v, nil
}

// strIdx reads a string-table reference and returns its index; callers
// resolve it through strings, fileIDAt, or symAt.
func (r *wireReader) strIdx() (int, error) {
	i, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if i >= uint64(len(r.strings)) {
		return 0, fmt.Errorf("buildcache: string index %d out of range", i)
	}
	return int(i), nil
}

func (r *wireReader) str() (string, error) {
	i, err := r.strIdx()
	if err != nil {
		return "", err
	}
	return r.strings[i], nil
}

// fileIDAt interns string-table entry i as a file name at most once.
func (r *wireReader) fileIDAt(i int) token.FileID {
	s := r.strings[i]
	if s == "" {
		return 0
	}
	if r.fileIDs == nil {
		r.fileIDs = make([]token.FileID, len(r.strings))
	}
	id := r.fileIDs[i]
	if id == 0 {
		id = token.InternFile(s)
		r.fileIDs[i] = id
	}
	return id
}

// symAt mirrors fileIDAt for identifier/keyword spellings.
func (r *wireReader) symAt(i int) token.Symbol {
	s := r.strings[i]
	if s == "" {
		return token.NoSym
	}
	if r.syms == nil {
		r.syms = make([]token.Symbol, len(r.strings))
	}
	sym := r.syms[i]
	if sym == 0 {
		sym = token.Intern(s)
		r.syms[i] = sym
	}
	return sym
}

func (r *wireReader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, fmt.Errorf("buildcache: payload truncated at %d", r.pos)
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *wireReader) posval() (token.Pos, error) {
	fi, err := r.strIdx()
	if err != nil {
		return token.Pos{}, err
	}
	off, err := r.varint()
	if err != nil {
		return token.Pos{}, err
	}
	line, err := r.varint()
	if err != nil {
		return token.Pos{}, err
	}
	col, err := r.varint()
	if err != nil {
		return token.Pos{}, err
	}
	return token.Pos{File: r.fileIDAt(fi), Offset: int32(off), Line: int32(line), Col: int32(col)}, nil
}

func (r *wireReader) tokens() ([]token.Token, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.buf)) {
		return nil, fmt.Errorf("buildcache: token count %d exceeds payload", n)
	}
	toks := make([]token.Token, 0, n)
	var prevFile token.FileID
	var prevOff, prevLine int64
	for i := uint64(0); i < n; i++ {
		kind, err := r.byte()
		if err != nil {
			return nil, err
		}
		flags, err := r.byte()
		if err != nil {
			return nil, err
		}
		ti, err := r.strIdx()
		if err != nil {
			return nil, err
		}
		file := prevFile
		if flags&tokFlagSameFile == 0 {
			fi, err := r.strIdx()
			if err != nil {
				return nil, err
			}
			file = r.fileIDAt(fi)
		}
		dOff, err := r.varint()
		if err != nil {
			return nil, err
		}
		dLine, err := r.varint()
		if err != nil {
			return nil, err
		}
		col, err := r.varint()
		if err != nil {
			return nil, err
		}
		off, line := prevOff+dOff, prevLine+dLine
		t := token.Token{
			Text:           r.strings[ti],
			Pos:            token.Pos{File: file, Offset: int32(off), Line: int32(line), Col: int32(col)},
			Kind:           token.Kind(kind),
			LeadingNewline: flags&tokFlagNewline != 0,
		}
		if t.Kind == token.Identifier || t.Kind == token.Keyword {
			// Symbols are process-local; re-intern into this node's
			// table (memoized per table entry, see symAt).
			t.Sym = r.symAt(ti)
		}
		toks = append(toks, t)
		prevFile, prevOff, prevLine = file, off, line
	}
	return toks, nil
}

// ----------------------------------------------------------- token entry

// EncodeTokens serializes a lexed token stream for the remote tier.
func EncodeTokens(toks []token.Token) []byte {
	w := newWireWriter(magicTokens)
	w.tokens(toks)
	return w.finish()
}

// DecodeTokens validates and deserializes an EncodeTokens payload,
// re-interning spellings and file names into this process's tables.
func DecodeTokens(payload []byte) ([]token.Token, error) {
	r, err := openWire(payload, magicTokens)
	if err != nil {
		return nil, err
	}
	return r.tokens()
}

// -------------------------------------------------------------- TU entry

func (w *wireWriter) strSlice(ss []string) {
	w.uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.strRef(s)
	}
}

func (r *wireReader) strSlice() ([]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(r.buf)) {
		return nil, fmt.Errorf("buildcache: slice count %d exceeds payload", n)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// EncodeTU serializes a whole-TU cache entry — the full preprocessor
// result, its Aux statistics (when a codec is registered for their
// type), and its dependency manifest — for the remote tier. The AST is
// intentionally not encoded (see the package comment above); TU.Unit
// re-parses lazily on the receiving node if anything needs the tree.
func EncodeTU(tu *TU, deps []Dep) ([]byte, error) {
	if tu == nil || tu.Result == nil {
		return nil, fmt.Errorf("buildcache: cannot encode TU without a preprocessor result")
	}
	res := tu.Result
	w := newWireWriter(magicTU)
	w.tokens(res.Tokens)
	w.strSlice(res.Includes)
	w.uvarint(uint64(res.LOC))

	ddKeys := make([]string, 0, len(res.DirectDeps))
	for k := range res.DirectDeps {
		ddKeys = append(ddKeys, k)
	}
	sort.Strings(ddKeys)
	w.uvarint(uint64(len(ddKeys)))
	for _, k := range ddKeys {
		w.strRef(k)
		w.strSlice(res.DirectDeps[k])
	}

	w.strSlice(res.MissingIncludes)
	w.strSlice(res.AbsentDeps)

	mdKeys := make([]string, 0, len(res.MacroDefs))
	for k := range res.MacroDefs {
		mdKeys = append(mdKeys, k)
	}
	sort.Strings(mdKeys)
	w.uvarint(uint64(len(mdKeys)))
	for _, k := range mdKeys {
		md := res.MacroDefs[k]
		w.strRef(k)
		w.strRef(md.Name)
		w.strRef(md.File)
		var fl byte
		if md.FunctionLike {
			fl = 1
		}
		w.buf = append(w.buf, fl)
		w.strRef(md.Body)
		w.pos(md.Pos)
	}

	w.uvarint(uint64(len(res.MacroUses)))
	for _, mu := range res.MacroUses {
		w.strRef(mu.Name)
		w.strRef(mu.DefFile)
		w.pos(mu.Pos)
	}

	w.uvarint(uint64(len(deps)))
	for _, d := range deps {
		w.strRef(d.Path)
		w.strRef(d.Hash)
	}
	w.encodeAux(tu.Aux)
	return w.finish(), nil
}

// DecodeTU validates and deserializes an EncodeTU payload. The decoded
// TU carries a nil AST — Unit() re-parses from the token stream on first
// use, which almost no consumer of an adopted entry ever needs — and
// whatever Aux the registered codecs restored. The returned manifest
// must be re-validated against the local filesystem before the entry is
// served — a remote hit is only a hit when every recorded dependency
// (including the negative probes) still matches.
func DecodeTU(payload []byte) (*TU, []Dep, error) {
	r, err := openWire(payload, magicTU)
	if err != nil {
		return nil, nil, err
	}
	res := &preprocessor.Result{}
	if res.Tokens, err = r.tokens(); err != nil {
		return nil, nil, err
	}
	if res.Includes, err = r.strSlice(); err != nil {
		return nil, nil, err
	}
	loc, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	res.LOC = int(loc)

	nDD, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if nDD > 0 {
		if nDD > uint64(len(r.buf)) {
			return nil, nil, fmt.Errorf("buildcache: direct-dep count %d exceeds payload", nDD)
		}
		res.DirectDeps = make(map[string][]string, nDD)
		for i := uint64(0); i < nDD; i++ {
			k, err := r.str()
			if err != nil {
				return nil, nil, err
			}
			vs, err := r.strSlice()
			if err != nil {
				return nil, nil, err
			}
			res.DirectDeps[k] = vs
		}
	}

	if res.MissingIncludes, err = r.strSlice(); err != nil {
		return nil, nil, err
	}
	if res.AbsentDeps, err = r.strSlice(); err != nil {
		return nil, nil, err
	}

	nMD, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if nMD > 0 {
		if nMD > uint64(len(r.buf)) {
			return nil, nil, fmt.Errorf("buildcache: macro-def count %d exceeds payload", nMD)
		}
		res.MacroDefs = make(map[string]preprocessor.MacroDef, nMD)
		for i := uint64(0); i < nMD; i++ {
			k, err := r.str()
			if err != nil {
				return nil, nil, err
			}
			var md preprocessor.MacroDef
			if md.Name, err = r.str(); err != nil {
				return nil, nil, err
			}
			if md.File, err = r.str(); err != nil {
				return nil, nil, err
			}
			fl, err := r.byte()
			if err != nil {
				return nil, nil, err
			}
			md.FunctionLike = fl&1 != 0
			if md.Body, err = r.str(); err != nil {
				return nil, nil, err
			}
			if md.Pos, err = r.posval(); err != nil {
				return nil, nil, err
			}
			res.MacroDefs[k] = md
		}
	}

	nMU, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if nMU > 0 {
		if nMU > uint64(len(r.buf)) {
			return nil, nil, fmt.Errorf("buildcache: macro-use count %d exceeds payload", nMU)
		}
		res.MacroUses = make([]preprocessor.MacroUse, 0, nMU)
		for i := uint64(0); i < nMU; i++ {
			var mu preprocessor.MacroUse
			if mu.Name, err = r.str(); err != nil {
				return nil, nil, err
			}
			if mu.DefFile, err = r.str(); err != nil {
				return nil, nil, err
			}
			if mu.Pos, err = r.posval(); err != nil {
				return nil, nil, err
			}
			res.MacroUses = append(res.MacroUses, mu)
		}
	}

	nDeps, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if nDeps > uint64(len(r.buf)) {
		return nil, nil, fmt.Errorf("buildcache: manifest count %d exceeds payload", nDeps)
	}
	deps := make([]Dep, 0, nDeps)
	for i := uint64(0); i < nDeps; i++ {
		var d Dep
		if d.Path, err = r.str(); err != nil {
			return nil, nil, err
		}
		if d.Hash, err = r.str(); err != nil {
			return nil, nil, err
		}
		deps = append(deps, d)
	}

	aux, err := r.decodeAux()
	if err != nil {
		return nil, nil, err
	}
	return NewTU(res, nil, aux), deps, nil
}
