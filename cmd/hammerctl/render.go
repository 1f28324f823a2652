package main

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/dist"
)

// The reconstruction renderers. Every body that carries a distribution —
// /v1/reconstruct, /v1/batch, stream snapshots — is appended straight from
// the result's Dist, byte for byte what encodeJSON renders for the
// equivalent map-typed structs, so cached bodies, L2 files and peers written
// by either agree. The small envelopes (health, errors, stream create,
// delete and plain ingest) stay on encodeJSON.

// spaces[:depth] is encodeJSON's line prefix at a nesting depth: it indents
// by one space per level.
const spaces = "        "

// object appends one JSON object member by member in encodeJSON's layout.
type object struct {
	b []byte
	// depth is the nesting depth of the line the object opens on; n counts
	// the members written so far.
	depth, n int
}

func (o *object) key(name string) {
	if o.n == 0 {
		o.b = append(o.b, '{')
	} else {
		o.b = append(o.b, ',')
	}
	o.n++
	o.b = append(o.b, '\n')
	o.b = append(o.b, spaces[:o.depth+1]...)
	o.b = append(o.b, '"')
	o.b = append(o.b, name...)
	o.b = append(o.b, `": `...)
}

func (o *object) int(name string, v int) {
	o.key(name)
	o.b = strconv.AppendInt(o.b, int64(v), 10)
}

func (o *object) str(name, v string) {
	o.key(name)
	o.b = appendString(o.b, v)
}

// dist appends d, failing only on a non-finite mass.
func (o *object) dist(name string, d *dist.Dist) error {
	o.key(name)
	var err error
	o.b, err = dist.AppendJSON(o.b, d, spaces[:o.depth+1], spaces[:1])
	return err
}

// close ends the object and returns the buffer.
func (o *object) close() []byte {
	o.b = append(o.b, '\n')
	o.b = append(o.b, spaces[:o.depth]...)
	return append(o.b, '}')
}

// appendString appends s quoted as encodeJSON quotes it. Engine labels and
// session ids are plain printable ASCII in practice; anything needing an
// escape (including encoding/json's HTML-safe <, > and &) goes through
// encoding/json itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // cannot fail for a string
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// growFor reserves room for d rendered at depth: per outcome the prefix,
// the quoted key, `": `, the longest shortest-form float64 encoding/json
// emits (24 bytes) and `,\n`, so rendering never reallocates.
func growFor(dst []byte, d *dist.Dist, depth int) []byte {
	return slices.Grow(dst, 256+d.Len()*(d.NumBits()+depth+32))
}

// rendered is one rendered reconstruction: the body, the engine for
// X-Hammer-Engine, and a rendering failure (a non-finite mass, which JSON
// cannot carry) that the handler reports once the worker slot is released.
type rendered struct {
	body   []byte
	engine string
	err    error
}

// appendResult appends one reconstruction object at depth — the
// /v1/reconstruct body and each /v1/batch result.
func appendResult(dst []byte, depth int, res *core.Result) rendered {
	o := object{b: growFor(dst, res.Out, depth), depth: depth}
	err := o.dist("dist", res.Out)
	o.int("support", res.Out.Len())
	o.str("engine", res.Engine)
	o.int("radius", res.Radius)
	return rendered{body: o.close(), engine: res.Engine, err: err}
}

// renderReconstruct renders a complete /v1/reconstruct body.
func renderReconstruct(res *core.Result) rendered {
	out := appendResult(nil, 0, res)
	out.body = append(out.body, '\n')
	return out
}

// renderBatch assembles the /v1/batch body from its members, each rendered
// by appendResult at depth 2 (inside "results": [...]); members is never
// empty, since an empty batch is a 400.
func renderBatch(members []rendered) ([]byte, error) {
	size := 32
	for _, m := range members {
		if m.err != nil {
			return nil, m.err
		}
		size += len(m.body) + 4
	}
	o := object{b: make([]byte, 0, size)}
	o.key("results")
	o.b = append(o.b, '[')
	for i, m := range members {
		if i > 0 {
			o.b = append(o.b, ',')
		}
		o.b = append(o.b, '\n')
		o.b = append(o.b, spaces[:2]...)
		o.b = append(o.b, m.body...)
	}
	o.b = append(o.b, '\n')
	o.b = append(o.b, spaces[:1]...)
	o.b = append(o.b, ']')
	return append(o.close(), '\n'), nil
}

// appendSnapshot appends one stream snapshot object at depth: the session's
// id and counters, then the reconstruction.
func appendSnapshot(dst []byte, depth int, id string, shots, support int, res *core.Result) rendered {
	o := object{b: growFor(dst, res.Out, depth), depth: depth}
	o.str("id", id)
	o.int("shots", shots)
	o.int("support", support)
	err := o.dist("dist", res.Out)
	o.str("engine", res.Engine)
	o.int("radius", res.Radius)
	return rendered{body: o.close(), engine: res.Engine, err: err}
}

// renderSnapshot renders a complete GET /v1/stream/{id} body.
func renderSnapshot(id string, shots, support int, res *core.Result) rendered {
	out := appendSnapshot(nil, 0, id, shots, support, res)
	out.body = append(out.body, '\n')
	return out
}

// renderIngestSnapshot renders a complete ?snapshot=1 ingest body: the
// ack's members, then the snapshot of the session the ack describes.
func renderIngestSnapshot(ack streamIngestAck, res *core.Result) rendered {
	o := object{}
	o.str("id", ack.ID)
	o.int("ingested", ack.Ingested)
	o.int("shots", ack.Shots)
	o.int("support", ack.Support)
	o.key("snapshot")
	out := appendSnapshot(o.b, 1, ack.ID, ack.Shots, ack.Support, res)
	o.b = out.body
	out.body = append(o.close(), '\n')
	return out
}

// exactCopy returns body in a buffer of exactly its length.
func exactCopy(body []byte) []byte {
	out := make([]byte, len(body))
	copy(out, body)
	return out
}

// writeEncodeFailure is the 500 for a response that could not be rendered.
func writeEncodeFailure(w http.ResponseWriter) {
	http.Error(w, `{"error": "response encoding failed", "index": -1}`, http.StatusInternalServerError)
}
