package server

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/navigation"
)

// FuzzDecodeSpec feeds arbitrary bytes through what the control plane
// does with a PUT …/structure body — strict JSON into a StructureSpec,
// then DecodeSpec — which must never panic. For every spec it accepts,
// encoding the structure and decoding it again reaches a fixed point
// after one round.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"index"}`,
		`{"kind":"menu","circular":true}`,
		`{"kind":"circular-guided-tour"}`,
		`{"kind":"indexed-guided-tour","circular":true}`,
		`{"kind":"adaptive-tour"}`,
		`{"kind":"circular-adaptive-tour","fallback":{"kind":"circular-indexed-guided-tour"}}`,
		`{"kind":"adaptive-tour","fallback":{"kind":"guided-tour"},"plans":{"ByAuthor:picasso":{"order":["guitar","avignon"],"landmarks":["guitar"],"dead":["avignon"]}}}`,
		`{"kind":"adaptive-tour","plans":{"Par époque:1900–1910":{"order":[]},"x":{}}}`,
		`{"kind":"adaptive-tour","fallback":{"kind":"adaptive-tour"}}`,
		`{"kind":"adaptive-tour","plans":{"":{}}}`,
		`{"kind":"index","plans":{"x":{}}}`,
		`{"kind":"guided-tour","fallback":{"kind":"index"}}`,
		`{"kind":"index","extra":1}`,
		`{"kind":"index"} {"kind":"menu"}`,
		`{"kind":""}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec navigation.StructureSpec
		if err := decodeStrict(body, &spec); err != nil {
			return
		}
		as, err := navigation.DecodeSpec(&spec)
		if err != nil {
			return
		}
		once, err := navigation.EncodeSpec(as)
		if err != nil {
			t.Fatalf("%s is accepted as %s, which does not encode: %v", body, navigation.AccessText(as), err)
		}
		again, err := navigation.DecodeSpec(once)
		if err != nil {
			t.Fatalf("%s: its encoding %+v does not decode: %v", body, once, err)
		}
		twice, err := navigation.EncodeSpec(again)
		if err != nil {
			t.Fatalf("%s: the decoded encoding %s does not encode: %v", body, navigation.AccessText(again), err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("%s: encodes as %+v, then as %+v", body, once, twice)
		}
	})
}

// etagMatchesSplit is the plain reading of If-None-Match that
// etagMatches implements without allocating: split the list at commas,
// trim each member and its weak prefix, and match "*" or the tag.
func etagMatchesSplit(ifNoneMatch, etag string) bool {
	target := strings.TrimPrefix(etag, "W/")
	for _, member := range strings.Split(ifNoneMatch, ",") {
		member = strings.TrimPrefix(strings.TrimSpace(member), "W/")
		if member == "*" || member == target {
			return true
		}
	}
	return false
}

// FuzzEtagMatches compares etagMatches with the split reference over
// arbitrary If-None-Match headers and tags. A tag that is empty once
// its weak prefix is dropped is out of range: the server never serves
// one, and the reference would match it against the empty member an
// empty header or a trailing comma leaves, which etagMatches skips.
func FuzzEtagMatches(f *testing.F) {
	for _, seed := range [][2]string{
		{`"g3-abc"`, `"g3-abc"`},
		{`W/"g3-abc"`, `"g3-abc"`},
		{`"g3-abc"`, `W/"g3-abc"`},
		{`"g2-abc", "g3-abc"`, `"g3-abc"`},
		{` "g2-abc" ,W/"g3-abc" `, `"g3-abc"`},
		{`*`, `"g3-abc"`},
		{`"a",*`, `"g3-abc"`},
		{`"g3-abd"`, `"g3-abc"`},
		{``, `"g3-abc"`},
		{`,,`, `"g3-abc"`},
		{`"g3-abc",`, `"g3-abc"`},
		{`W/W/"g3-abc"`, `"g3-abc"`},
		{"\t\"g3-abc\"\r\n", `"g3-abc"`},
		{`"g3-a,bc"`, `"g3-a,bc"`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, header, etag string) {
		if strings.TrimPrefix(etag, "W/") == "" {
			return
		}
		if got, want := etagMatches(header, etag), etagMatchesSplit(header, etag); got != want {
			t.Fatalf("etagMatches(%q, %q) = %v, the split reading says %v", header, etag, got, want)
		}
	})
}

// FuzzSessionCookie compares sessionCookieValue with r.Cookie over
// arbitrary one- to three-line Cookie headers: both find the same
// navsession value, or none.
func FuzzSessionCookie(f *testing.F) {
	for _, seed := range [][3]string{
		{"navsession=abc", "", ""},
		{"a=1; navsession=abc; b=2", "", ""},
		{"navsession=\"abc\"", "", ""},
		{"navsession=a\\b; navsession=ok", "", ""},
		{"navsession=; navsession=later", "", ""},
		{" navsession = abc ;", "", ""},
		{"navsession", "navsession=x", ""},
		{"other=1", "navsession=\"\"", "navsession=y"},
		{"navsession=\"", "navsession=\xff", "navsession=\tz"},
		{"NAVSESSION=abc;navsession=a b", "", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, a, b, c string) {
		r := &http.Request{Header: http.Header{"Cookie": {a}}}
		if b != "" {
			r.Header["Cookie"] = append(r.Header["Cookie"], b)
			if c != "" {
				r.Header["Cookie"] = append(r.Header["Cookie"], c)
			}
		}
		want := ""
		if cookie, err := r.Cookie(sessionCookie); err == nil {
			want = cookie.Value
		}
		if got := sessionCookieValue(r); got != want {
			t.Fatalf("sessionCookieValue(%q) = %q, r.Cookie says %q", r.Header["Cookie"], got, want)
		}
	})
}

// splitPagePathSplit is splitPagePath as strings.Split and strings.Join
// read a page path: the reference FuzzSplitPagePath holds it to.
func splitPagePathSplit(path string) (contextName, nodeID string, err error) {
	segs := strings.Split(strings.TrimSuffix(path, ".html"), "/")
	if len(segs) < 2 {
		return "", "", fmt.Errorf("server: page path %q too short", path)
	}
	for _, seg := range segs {
		if seg == "" {
			return "", "", fmt.Errorf("server: page path %q has an empty segment", path)
		}
	}
	nodeID = segs[len(segs)-1]
	if nodeID == "index" {
		nodeID = navigation.HubID
	}
	return strings.Join(segs[:len(segs)-1], ":"), nodeID, nil
}

// FuzzSplitPagePath compares splitPagePath with the split reference over
// arbitrary paths: both fail, or both return the same context and node.
func FuzzSplitPagePath(f *testing.F) {
	for _, c := range splitPagePathCases {
		f.Add(c.path)
	}
	f.Fuzz(func(t *testing.T, path string) {
		ctx, node, err := splitPagePath(path)
		wantCtx, wantNode, wantErr := splitPagePathSplit(path)
		if (err != nil) != (wantErr != nil) || ctx != wantCtx || node != wantNode {
			t.Fatalf("splitPagePath(%q) = (%q, %q, %v), the split reading says (%q, %q, %v)",
				path, ctx, node, err, wantCtx, wantNode, wantErr)
		}
	})
}
