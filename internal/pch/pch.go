// Package pch implements the pre-compiled-header baseline the paper
// compares against (§2.2, §5.3). A PCH is built by preprocessing and
// parsing the expensive header once and serializing the resulting token
// stream; a compilation that uses the PCH skips re-lexing/re-parsing the
// header's files and instead pays a deserialization cost proportional to
// the PCH size — which is why PCH helps the frontend but "the AST must
// still be loaded from the PCH file on disk which is expensive" and the
// backend time is unchanged (Fig. 7a).
package pch

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buildcache"
	"repro/internal/cpp/token"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// PCH is one built pre-compiled header.
type PCH struct {
	Header string
	// Files covered by the PCH (the header and everything it includes).
	Files map[string]bool
	// Tokens is the header's full token stream.
	Tokens []token.Token
	// LOC is the header's source-line contribution.
	LOC int

	// size is len(Serialize(Tokens)), computed without building the
	// blob.
	size int
}

// Build constructs a PCH for the given header file. With a cache, the
// header's preprocess + parse is served from (and feeds) the
// content-addressed TU cache the compilation simulator shares, so
// building a PCH and probe-compiling the same header costs one frontend
// run per process; the PCH is byte-identical with or without it. o, when
// set, records a "pch.build" span (with preprocess/parse child spans on
// cache misses) and blob-size metrics.
func Build(fs *vfs.FS, header string, searchPaths []string, defines map[string]string, cache *buildcache.Cache, o *obs.Obs) (*PCH, error) {
	sp := o.Start("pch.build")
	sp.SetStr("header", header)
	defer sp.End()
	unit, err := frontend.Parse(frontend.Config{FS: fs, SearchPaths: searchPaths, Defines: defines, Cache: cache}, header, sp.Obs())
	if err != nil {
		return nil, fmt.Errorf("pch: %v", err)
	}
	res := unit.Result
	p := &PCH{
		Header: vfs.Clean(header),
		Files:  map[string]bool{vfs.Clean(header): true},
		Tokens: res.Tokens,
		LOC:    res.LOC,
	}
	for _, inc := range res.Includes {
		p.Files[inc] = true
	}
	p.size = serializedSize(res.Tokens)
	o.Counter("pch.builds").Add(1)
	o.Observe("pch.blob_bytes", float64(p.size))
	sp.SetInt("blob_bytes", int64(p.size))
	sp.SetInt("files", int64(len(p.Files)))
	return p, nil
}

// serializedSize is len(Serialize(toks)): the PCH's modeled on-disk size,
// which is all a compile reads of the format.
func serializedSize(toks []token.Token) int {
	var tmp [binary.MaxVarintLen64]byte
	n := len("YPCH") + binary.PutUvarint(tmp[:], uint64(len(toks)))
	for _, t := range toks {
		n += binary.PutUvarint(tmp[:], uint64(t.Kind)) +
			binary.PutUvarint(tmp[:], uint64(t.Pos.Offset)) +
			binary.PutUvarint(tmp[:], uint64(len(t.Text))) + len(t.Text)
	}
	return n
}

// Serialize encodes a token stream into the PCH on-disk format: a small
// header, then length-prefixed records (kind, position, spelling).
func Serialize(toks []token.Token) []byte {
	buf := make([]byte, 0, len(toks)*16)
	var tmp [10]byte
	magic := []byte("YPCH")
	buf = append(buf, magic...)
	n := binary.PutUvarint(tmp[:], uint64(len(toks)))
	buf = append(buf, tmp[:n]...)
	for _, t := range toks {
		n = binary.PutUvarint(tmp[:], uint64(t.Kind))
		buf = append(buf, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(t.Pos.Offset))
		buf = append(buf, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(len(t.Text)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, t.Text...)
	}
	return buf
}

// Deserialize decodes a serialized token stream; it is the work a
// PCH-using compile performs instead of re-parsing the header.
func Deserialize(blob []byte) ([]token.Token, error) {
	if len(blob) < 4 || string(blob[:4]) != "YPCH" {
		return nil, fmt.Errorf("pch: bad magic")
	}
	b := blob[4:]
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("pch: truncated count")
	}
	b = b[n:]
	toks := make([]token.Token, 0, count)
	for i := uint64(0); i < count; i++ {
		kind, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("pch: truncated kind at %d", i)
		}
		b = b[n:]
		off, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("pch: truncated offset at %d", i)
		}
		b = b[n:]
		tlen, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("pch: truncated length at %d", i)
		}
		b = b[n:]
		if uint64(len(b)) < tlen {
			return nil, fmt.Errorf("pch: truncated text at %d", i)
		}
		toks = append(toks, token.Token{
			Kind: token.Kind(kind),
			Pos:  token.Pos{Offset: int32(off)},
			Text: string(b[:tlen]),
		})
		b = b[tlen:]
	}
	return toks, nil
}

// Covers reports whether the PCH covers the given file.
func (p *PCH) Covers(file string) bool { return p.Files[file] }

// SizeBytes is the modeled on-disk size: the length of the serialized
// token stream (the paper notes PCH files reach hundreds of megabytes).
func (p *PCH) SizeBytes() int { return p.size }
