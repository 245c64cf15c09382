package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

// TestServerDropsSlowClients pins the server timeouts: a raw TCP client that
// sends half a request header is disconnected once the header timeout
// passes, and a keep-alive connection left idle after a complete exchange is
// closed once the idle timeout passes.
func TestServerDropsSlowClients(t *testing.T) {
	defer func(h, i time.Duration) { readHeaderTimeout, idleTimeout = h, i }(readHeaderTimeout, idleTimeout)
	readHeaderTimeout, idleTimeout = 200*time.Millisecond, 300*time.Millisecond
	defer func(r time.Duration) { readTimeout = r }(readTimeout)
	readTimeout = 400 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()

	// waitClosed reads until the server closes conn, failing if that takes
	// less than min or more than a generous bound.
	waitClosed := func(conn net.Conn, r io.Reader, min time.Duration, what string) {
		t.Helper()
		start := time.Now()
		conn.SetReadDeadline(start.Add(5 * time.Second))
		_, err := io.Copy(io.Discard, r)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: connection still open after 5 s", what)
		}
		if took := time.Since(start); took < min {
			t.Fatalf("%s: connection closed after %v, before the %v timeout", what, took, min)
		}
	}

	half, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer half.Close()
	if _, err := io.WriteString(half, "GET /healthz HTTP/1.1\r\nHost: wsd\r\n"); err != nil {
		t.Fatal(err)
	}
	waitClosed(half, half, readHeaderTimeout/2, "half a request header")

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: wsd\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete request: status %d", resp.StatusCode)
	}
	waitClosed(idle, br, idleTimeout/2, "idle keep-alive connection")

	// A client that sends a whole header promptly, then trickles its body a
	// byte at a time, is cut off once the whole-request timeout passes.
	trickle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer trickle.Close()
	if _, err := io.WriteString(trickle, "POST /ingest HTTP/1.1\r\nHost: wsd\r\nContent-Length: 100000\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-stopped }()
	go func() {
		defer close(stopped)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := trickle.Write([]byte{'+'}); err != nil {
					return
				}
			}
		}
	}()
	waitClosed(trickle, trickle, readTimeout/2, "body trickled a byte at a time")
}
