package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	hammer "repro"
	"repro/internal/cache"
)

// serveBody posts body to /v1/reconstruct through the handler stack
// in-process, with the recorder as the wire.
func serveBody(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/reconstruct", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestDigestRepeatHits: the same bytes sent twice are an L1 hit found
// through the body digest, byte-identical to the miss, with the engine
// header of the miss.
func TestDigestRepeatHits(t *testing.T) {
	srv, ts := newFleetServer(t, serverConfig{})
	body := string(benchCountsJSON(t, 12, 300, 7))
	code, miss, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", body)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheMiss {
		t.Fatalf("first: %d %q", code, hdr.Get(cacheHeader))
	}
	engine := hdr.Get(engineHeader)
	code, hit, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", body)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheHit || hdr.Get(engineHeader) != engine {
		t.Fatalf("repeat: %d %q %q", code, hdr.Get(cacheHeader), hdr.Get(engineHeader))
	}
	if !bytes.Equal(hit, miss) {
		t.Error("the hit's body differs from the miss's")
	}
	if h, n := srv.digests.Hits(), srv.digests.Len(); h != 1 || n != 1 {
		t.Errorf("digest LRU: %d hits, %d entries; want 1 and 1", h, n)
	}
	if h := srv.cache.L1.Hits(); h != 1 {
		t.Errorf("L1 hits %d, want 1", h)
	}
}

// TestDigestWrappedSpellingHits: the wrapped spelling of a request already
// cached bare has another digest, so it decodes, and it hits through the
// canonical key; its own repeat is then a digest hit.
func TestDigestWrappedSpellingHits(t *testing.T) {
	srv, ts := newFleetServer(t, serverConfig{})
	bare := string(benchCountsJSON(t, 12, 300, 7))
	code, miss, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", bare)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheMiss {
		t.Fatalf("bare: %d %q", code, hdr.Get(cacheHeader))
	}
	wrapped := `{"counts": ` + bare + `, "deadline_ms": 60000}`
	for i := range 2 {
		code, got, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", wrapped)
		if code != http.StatusOK || hdr.Get(cacheHeader) != cacheHit || !bytes.Equal(got, miss) {
			t.Fatalf("wrapped %d: %d %q, body equal %v", i, code, hdr.Get(cacheHeader), bytes.Equal(got, miss))
		}
		if h := srv.digests.Hits(); h != uint64(i) {
			t.Errorf("wrapped %d: digest hits %d, want %d", i, h, i)
		}
	}
	if n := srv.digests.Len(); n != 2 {
		t.Errorf("digest LRU holds %d bodies, want 2", n)
	}
	if n := srv.cache.L1.Len(); n != 1 {
		t.Errorf("L1 holds %d entries, want the one shared entry", n)
	}
}

// TestInvalidBodiesSkipDigests: a body the server rejects records no digest,
// so sending it again decodes and rejects it again.
func TestInvalidBodiesSkipDigests(t *testing.T) {
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 1}, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	mux := srv.mux()
	for _, body := range []string{
		`{"0x": 1}`,
		`{"01": 1, "011": 1}`,
		`{}`,
		`{"01": 0}`,
		`{"01": -1}`,
		`{"counts": {"0x": 1}, "config": {"radius": 1}}`,
	} {
		for range 2 {
			if rec := serveBody(mux, body); rec.Code != http.StatusBadRequest || rec.Header().Get(cacheHeader) != "" {
				t.Errorf("%s: %d %q", body, rec.Code, rec.Header().Get(cacheHeader))
			}
		}
	}
	if n, h := srv.digests.Len(), srv.digests.Hits(); n != 0 || h != 0 {
		t.Errorf("digest LRU: %d entries, %d hits after invalid bodies; want none", n, h)
	}
}

// TestDigestHitRefills: a known digest whose entry every tier has dropped is
// a miss that decodes inside fill and returns the same bytes; a known digest
// whose body does not decode there is a 400.
func TestDigestHitRefills(t *testing.T) {
	srv, err := newServer(serverConfig{Config: hammer.Config{Workers: 1}, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	mux := srv.mux()
	body := string(benchCountsJSON(t, 12, 300, 7))
	first := serveBody(mux, body)
	if first.Code != http.StatusOK || first.Header().Get(cacheHeader) != cacheMiss {
		t.Fatalf("first: %d %q", first.Code, first.Header().Get(cacheHeader))
	}
	srv.cache.L1 = cache.New[[]byte](8)
	again := serveBody(mux, body)
	if again.Code != http.StatusOK || again.Header().Get(cacheHeader) != cacheMiss {
		t.Fatalf("after L1 loss: %d %q", again.Code, again.Header().Get(cacheHeader))
	}
	if !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Error("refilled body differs from the first")
	}
	if h, n := srv.digests.Hits(), srv.cache.L1.Len(); h != 1 || n != 1 {
		t.Errorf("digest hits %d, L1 entries %d; want 1 and 1", h, n)
	}

	bad := `{"0x": 1}`
	sum := sha256.Sum256([]byte(bad))
	srv.digests.Put(string(sum[:]), strings.Repeat("0", 64))
	rec := serveBody(mux, bad)
	if rec.Code != http.StatusBadRequest || rec.Header().Get(cacheHeader) != "" {
		t.Errorf("undecodable body under a known digest: %d %q (%s)", rec.Code, rec.Header().Get(cacheHeader), rec.Body)
	}
}

// TestDigestConcurrentRepeats: eight clients post one body at once; every
// answer is the same bytes and the body's digest is recorded once. Run it
// under -race.
func TestDigestConcurrentRepeats(t *testing.T) {
	srv, ts := newFleetServer(t, serverConfig{})
	body := string(benchCountsJSON(t, 12, 300, 11))
	const clients = 8
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [clients][]byte
		errs  [clients]error
	)
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			got[i], errs[i] = io.ReadAll(resp.Body)
			if errs[i] == nil && resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, got[i])
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range clients {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], got[0]) {
			t.Errorf("client %d's body differs from client 0's", i)
		}
	}
	if n := srv.digests.Len(); n != 1 {
		t.Errorf("digest LRU holds %d entries, want 1", n)
	}
}

// TestReadBodyLengths covers each way a body can arrive: chunked, a
// Content-Length past the pre-sized buffer, a body shorter than its
// Content-Length, and a body over the request cap.
func TestReadBodyLengths(t *testing.T) {
	_, ts := newFleetServer(t, serverConfig{})
	body := `{"0011": 30, "0111": 9, "1011": 4}`
	code, want, hdr := postHeaders(t, ts.URL+"/v1/reconstruct", body)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheMiss {
		t.Fatalf("reference: %d %q", code, hdr.Get(cacheHeader))
	}

	// No Content-Length: an unknown-length reader goes out chunked.
	resp, err := http.Post(ts.URL+"/v1/reconstruct", "application/json", io.MultiReader(strings.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != cacheHit || !bytes.Equal(got, want) {
		t.Errorf("chunked: %d %q, body equal %v, err %v", resp.StatusCode, resp.Header.Get(cacheHeader), bytes.Equal(got, want), err)
	}

	// A Content-Length past the pre-size: the same histogram padded with
	// trailing whitespace is another digest but the same cache key.
	padded := body + strings.Repeat(" ", maxPresizeBytes+100)
	code, got, hdr = postHeaders(t, ts.URL+"/v1/reconstruct", padded)
	if code != http.StatusOK || hdr.Get(cacheHeader) != cacheHit || !bytes.Equal(got, want) {
		t.Errorf("%d-byte body: %d %q, body equal %v", len(padded), code, hdr.Get(cacheHeader), bytes.Equal(got, want))
	}

	// A body shorter than its Content-Length is a 400, on either read path.
	for _, declared := range []int{len(body) + 10, maxPresizeBytes + 10} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /v1/reconstruct HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", declared, body)
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("Content-Length %d: %v", declared, err)
		}
		resp.Body.Close()
		conn.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("Content-Length %d with a %d-byte body: %d, want 400", declared, len(body), resp.StatusCode)
		}
	}

	// A body over the cap, declared or not, is a 413 that closes the
	// connection.
	for _, declared := range []int64{-1, maxRequestBytes + 2} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/reconstruct", io.LimitReader(zeros{}, maxRequestBytes+2))
		if err != nil {
			t.Fatal(err)
		}
		req.ContentLength = declared
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("Content-Length %d: %v", declared, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
			t.Errorf("Content-Length %d: %d, close %v; want 413 closing the connection", declared, resp.StatusCode, resp.Close)
		}
	}
}
