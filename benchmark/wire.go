package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// sessionCookie is navserve's visitor-session cookie.
const sessionCookie = "navsession"

// request is one HTTP request of the generator.
type request struct {
	method      string
	path        string
	cookie      string // navsession value, empty for a first contact
	ifNoneMatch string
	token       string // control-plane bearer token
	contentType string
	body        []byte
	wantBody    bool // keep the response body (JSON reads); otherwise it is discarded
}

// response is what the generator keeps of an HTTP response.
type response struct {
	status   int
	location string
	etag     string
	cookie   string // navsession value from Set-Cookie, if any
	body     []byte
}

// transport sends one request and waits for its response. A transport
// is used by one goroutine at a time.
type transport interface {
	do(req *request) (response, error)
}

// wireConn is one keep-alive HTTP/1.1 connection to navserve. It writes
// requests by hand and counts every byte read from the socket, so
// wire_bytes_per_req is measured at the socket, not reconstructed from
// headers.
type wireConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
	read atomic.Int64 // bytes read from the socket over the connection's lifetime
}

func newWireConn(addr string) *wireConn { return &wireConn{addr: addr} }

// countingConn counts the bytes read through it into *n.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (w *wireConn) dial() error {
	c, err := net.DialTimeout("tcp", w.addr, 5*time.Second)
	if err != nil {
		return err
	}
	w.c = c
	w.br = bufio.NewReaderSize(countingConn{Conn: c, n: &w.read}, 32<<10)
	return nil
}

func (w *wireConn) close() {
	if w.c != nil {
		w.c.Close()
		w.c, w.br = nil, nil
	}
}

func (w *wireConn) do(req *request) (response, error) {
	if w.c == nil {
		if err := w.dial(); err != nil {
			return response{}, err
		}
	}
	w.buf = appendRequest(w.buf[:0], w.addr, req)
	// A stalled server must fail the request, not hang the benchmark.
	_ = w.c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := w.c.Write(w.buf); err != nil {
		w.close()
		return response{}, err
	}
	resp, err := http.ReadResponse(w.br, nil)
	if err != nil {
		w.close()
		return response{}, err
	}
	out := readResponse(resp, req.wantBody)
	_, err = io.Copy(io.Discard, resp.Body) // anything readResponse left
	resp.Body.Close()
	if err != nil || resp.Close {
		w.close()
	}
	return out, err
}

// readResponse extracts the fields the generator checks.
func readResponse(resp *http.Response, wantBody bool) response {
	out := response{
		status:   resp.StatusCode,
		location: resp.Header.Get("Location"),
		etag:     resp.Header.Get("ETag"),
	}
	for _, sc := range resp.Header.Values("Set-Cookie") {
		if v, ok := strings.CutPrefix(sc, sessionCookie+"="); ok {
			out.cookie, _, _ = strings.Cut(v, ";")
		}
	}
	if wantBody {
		out.body, _ = io.ReadAll(resp.Body)
	}
	return out
}

func appendRequest(b []byte, host string, req *request) []byte {
	b = append(b, req.method...)
	b = append(b, ' ')
	b = append(b, req.path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\nUser-Agent: navbenchmark\r\n"...)
	if req.cookie != "" {
		b = append(b, "Cookie: "+sessionCookie+"="...)
		b = append(b, req.cookie...)
		b = append(b, "\r\n"...)
	}
	if req.ifNoneMatch != "" {
		b = append(b, "If-None-Match: "...)
		b = append(b, req.ifNoneMatch...)
		b = append(b, "\r\n"...)
	}
	if req.token != "" {
		b = append(b, "Authorization: Bearer "...)
		b = append(b, req.token...)
		b = append(b, "\r\n"...)
	}
	if req.body != nil || req.method == http.MethodPut || req.method == http.MethodPatch {
		if req.contentType != "" {
			b = append(b, "Content-Type: "...)
			b = append(b, req.contentType...)
			b = append(b, "\r\n"...)
		}
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(req.body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	return append(b, req.body...)
}

// handlerTransport calls an http.Handler in-process: the traced run and
// the resume population drive the serving stack without a socket.
type handlerTransport struct {
	h http.Handler
}

func (t handlerTransport) do(req *request) (response, error) {
	w := httptest.NewRecorder()
	t.h.ServeHTTP(w, req.httpRequest())
	return readResponse(w.Result(), req.wantBody), nil
}

// httpRequest builds the in-process form of req.
func (req *request) httpRequest() *http.Request {
	r := httptest.NewRequest(req.method, req.path, bytes.NewReader(req.body))
	if req.cookie != "" {
		r.Header.Set("Cookie", sessionCookie+"="+req.cookie)
	}
	if req.ifNoneMatch != "" {
		r.Header.Set("If-None-Match", req.ifNoneMatch)
	}
	if req.token != "" {
		r.Header.Set("Authorization", "Bearer "+req.token)
	}
	if req.contentType != "" {
		r.Header.Set("Content-Type", req.contentType)
	}
	return r
}

// getBody GETs path and fails unless the answer is 200.
func getBody(t transport, path, token string) ([]byte, error) {
	resp, err := t.do(&request{method: http.MethodGet, path: path, token: token, wantBody: true})
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.status)
	}
	return resp.body, nil
}
