package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"floorplan/internal/cache"
	"floorplan/internal/gen"
	"floorplan/internal/loadgen"
	"floorplan/internal/optimizer"
	"floorplan/internal/plan"
	"floorplan/internal/shape"
)

// refNode, refOptions and refRequest are OptimizeRequest without methods:
// the reference FuzzDecodeRequest decodes with encoding/json.
type refNode struct {
	Kind     string     `json:"kind"`
	Module   string     `json:"module,omitempty"`
	Name     string     `json:"name,omitempty"`
	CCW      bool       `json:"ccw,omitempty"`
	Children []*refNode `json:"children,omitempty"`
}

type refOptions RequestOptions

type refRequest struct {
	Tree    *refNode                 `json:"tree"`
	Library map[string][]shape.RImpl `json:"library"`
	Options refOptions               `json:"options,omitempty"`
}

// refTreeOK reports whether plan.Node's conversion accepts the reference
// tree: no null node, every kind known.
func refTreeOK(n *refNode) bool {
	if n == nil {
		return false
	}
	switch n.Kind {
	case "leaf", "hslice", "vslice", "wheel":
	default:
		return false
	}
	for _, c := range n.Children {
		if !refTreeOK(c) {
			return false
		}
	}
	return true
}

func sameRefTree(n *plan.Node, r *refNode) bool {
	if n == nil || r == nil {
		return n == nil && r == nil
	}
	if n.Kind.String() != r.Kind || n.Module != r.Module || n.Name != r.Name || n.CCW != r.CCW ||
		len(n.Children) != len(r.Children) {
		return false
	}
	for i := range n.Children {
		if !sameRefTree(n.Children[i], r.Children[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeRequest checks the one-pass request decoder against
// encoding/json decoding the same bytes into refRequest and converting its
// tree: both reject, or both accept with the same tree, library (nil and
// empty lists alike) and options. Seeds for every trap the decoder handles
// are under testdata/fuzz/FuzzDecodeRequest.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"tree":{"kind":"vslice","children":[{"kind":"leaf","module":"a"},{"kind":"leaf","module":"b"}]},
		"library":{"a":[{"W":4,"H":7},{"W":7,"H":4}],"b":[{"W":3,"H":3}]},
		"options":{"k1":20,"k2":200,"theta":0.5,"s":500,"memory_limit":1000,"skip_placement":true,
		"workers":2,"timeout_ms":100,"no_cache":true}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got OptimizeRequest
		err := got.UnmarshalJSON(data)
		var want refRequest
		refErr := json.Unmarshal(data, &want)
		if refErr == nil && want.Tree != nil && !refTreeOK(want.Tree) {
			refErr = fmt.Errorf("tree has a null node or an unknown kind")
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decode error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sameRefTree(got.Tree, want.Tree) {
			t.Fatalf("tree %s, reference %s", mustMarshal(t, got.Tree), mustMarshal(t, want.Tree))
		}
		if !sameLib(got.Library, want.Library) {
			t.Fatalf("library %v, reference %v", got.Library, want.Library)
		}
		if got.Options != RequestOptions(want.Options) {
			t.Fatalf("options %+v, reference %+v", got.Options, want.Options)
		}
	})
}

func mustMarshal(tb testing.TB, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func sameLib(got plan.Library, want map[string][]shape.RImpl) bool {
	if len(got) != len(want) {
		return false
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if g[i] != w[i] {
				return false
			}
		}
	}
	return true
}

// TestWriteReplyMatchesEncoder pins the optimize reply's wire format: the
// assembled bytes, headers and trailing newline are exactly what
// json.Encoder writes for the same OptimizeResponse, for payloads whose
// module names the encoder escapes and runtimes with and without their
// omitempty fields.
func TestWriteReplyMatchesEncoder(t *testing.T) {
	names := []string{"a<b", "c>d", "e&f", "g\u2028h", "i\u2029j"}
	tree := plan.NewVSlice(plan.NewLeaf(names[0]), plan.NewHSlice(plan.NewLeaf(names[1]), plan.NewLeaf(names[2])),
		plan.NewLeaf(names[3]), plan.NewLeaf(names[4]))
	lib := optimizer.Library{}
	for i, n := range names {
		lib[n] = shape.RList{{W: int64(i + 4), H: 3}, {W: 3, H: int64(i + 4)}}
	}
	var payloads [][]byte
	for _, skip := range []bool{false, true} {
		o, err := optimizer.New(lib, optimizer.Options{SkipPlacement: skip})
		if err != nil {
			t.Fatal(err)
		}
		res, err := o.Run(tree)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := marshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload)
	}
	if !bytes.Contains(payloads[0], []byte(`"a\u003cb"`)) || !bytes.Contains(payloads[0], []byte(`"g\u2028h"`)) {
		t.Fatalf("payload does not carry the escaped names: %s", payloads[0])
	}
	runtimes := []ResponseRuntime{
		{ElapsedMs: 0, Cache: "hit"},
		{ElapsedMs: 12, Cache: "miss", NodeID: "n<1>&", TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
			SpanID: "00f067aa0ba902b7", SubtreeSpliced: 3, SubtreeComputed: 4},
	}
	var key cache.Key
	for i := range key {
		key[i] = byte(i * 7)
	}
	for _, payload := range payloads {
		for _, rt := range runtimes {
			got := httptest.NewRecorder()
			writeReply(got, key, payload, &rt)
			want := httptest.NewRecorder()
			writeJSON(want, http.StatusOK, &OptimizeResponse{Key: key.String(), Result: payload, Runtime: rt})
			if got.Code != want.Code {
				t.Errorf("status %d, encoder %d", got.Code, want.Code)
			}
			if fmt.Sprint(got.Header()) != fmt.Sprint(want.Header()) {
				t.Errorf("headers %v, encoder %v", got.Header(), want.Header())
			}
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("reply\n%s\nencoder\n%s", got.Body.Bytes(), want.Body.Bytes())
			}
		}
	}
}

// hotBodies are serve_hot-shaped requests: a loadgen corpus of 64 keys,
// 20–40 modules, 10 implementations each.
func hotBodies(b *testing.B) [][]byte {
	corpus, err := loadgen.BuildCorpus(loadgen.CorpusSpec{Keys: 64, MinModules: 20, MaxModules: 40, Impls: 10}, 1)
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(corpus))
	for i, w := range corpus {
		bodies[i] = mustMarshal(b, OptimizeRequest{Tree: w.Tree, Library: w.Library, Options: RequestOptions{K1: 12}})
	}
	return bodies
}

// editBodies are serve_edit-shaped requests: 96-module random trees
// (pWheel 0.25) with 16-implementation libraries.
func editBodies(b *testing.B) [][]byte {
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 8)
	for i := range bodies {
		tree, err := gen.RandomTree(rng, 96, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		rl, err := gen.Library(rng, tree, gen.DefaultModuleParams(16))
		if err != nil {
			b.Fatal(err)
		}
		lib := make(plan.Library, len(rl))
		for name, l := range rl {
			lib[name] = l
		}
		bodies[i] = mustMarshal(b, OptimizeRequest{Tree: tree, Library: lib,
			Options: RequestOptions{K1: 16, K2: 200, Theta: 0.5, S: 500}})
	}
	return bodies
}

// discardWriter is a ResponseWriter that drops what it is given.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkDecodeRequest times decodeRequest, body read and tree
// validation included, on serve_hot- and serve_edit-shaped bodies.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, bc := range []struct {
		name   string
		bodies func(*testing.B) [][]byte
	}{{"hot", hotBodies}, {"edit", editBodies}} {
		b.Run(bc.name, func(b *testing.B) {
			bodies := bc.bodies(b)
			s := &Server{}
			w := &discardWriter{h: http.Header{}}
			rd := bytes.NewReader(nil)
			req := &http.Request{Method: http.MethodPost, Header: http.Header{}, Body: io.NopCloser(rd)}
			var size int
			for _, body := range bodies {
				size += len(body)
			}
			b.SetBytes(int64(size / len(bodies)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body := bodies[i%len(bodies)]
				rd.Reset(body)
				req.ContentLength = int64(len(body))
				if _, _, err := s.decodeRequest(w, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRespond times the reply to a cache hit carrying a serve_hot
// payload (~6 KB with placement).
func BenchmarkRespond(b *testing.B) {
	corpus, err := loadgen.BuildCorpus(loadgen.CorpusSpec{Keys: 1, MinModules: 30, MaxModules: 30, Impls: 10}, 1)
	if err != nil {
		b.Fatal(err)
	}
	lib := make(optimizer.Library, len(corpus[0].Library))
	for name, impls := range corpus[0].Library {
		l, err := plan.CanonicalModule(name, impls)
		if err != nil {
			b.Fatal(err)
		}
		lib[name] = l
	}
	o, err := optimizer.New(lib, optimizer.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := o.Run(corpus[0].Tree)
	if err != nil {
		b.Fatal(err)
	}
	payload, err := marshalResult(res)
	if err != nil {
		b.Fatal(err)
	}
	w := &discardWriter{h: http.Header{}}
	rec := &RequestRecord{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7",
		Disposition: "hit", started: time.Now()}
	var key cache.Key
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		respond(w, key, payload, rec)
	}
}
