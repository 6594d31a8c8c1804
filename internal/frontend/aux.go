package frontend

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buildcache"
)

// The remote (L2) cache tier serializes TU.Aux through registered
// codecs. Registering Stats here is what makes remote adoption cheap:
// an adopted entry arrives with its unit statistics intact, so a
// compile takes the Aux fast path instead of re-parsing the token
// stream to re-count declarations — and since nothing else on the hot
// path needs the AST, the whole re-parse disappears from the L2 fetch.
//
// The wire order is fixed by statsAuxFields; any field addition or
// reorder must bump the codec name so old nodes fall back to a nil Aux
// (and the re-derive path) instead of mis-decoding.
const statsAuxName = "frontend.stats/1"

// statsAuxFields lists every Stats field in wire order.
func statsAuxFields(st *Stats) []*int {
	return []*int{
		&st.LOC, &st.Headers, &st.Tokens,
		&st.Decls, &st.FuncDefs, &st.MainFuncDefs, &st.BodyTokens,
		&st.TemplateUses, &st.MissingIncl,
	}
}

func init() {
	buildcache.RegisterAux(buildcache.AuxCodec{
		Name: statsAuxName,
		Encode: func(aux any) ([]byte, bool) {
			st, ok := aux.(Stats)
			if !ok {
				return nil, false
			}
			var blob []byte
			for _, f := range statsAuxFields(&st) {
				blob = binary.AppendVarint(blob, int64(*f))
			}
			return blob, true
		},
		Decode: func(blob []byte) (any, error) {
			var st Stats
			pos := 0
			for _, f := range statsAuxFields(&st) {
				v, n := binary.Varint(blob[pos:])
				if n <= 0 {
					return nil, fmt.Errorf("malformed stats varint at %d", pos)
				}
				*f = int(v)
				pos += n
			}
			if pos != len(blob) {
				return nil, fmt.Errorf("%d trailing bytes after stats", len(blob)-pos)
			}
			return st, nil
		},
	})
}
