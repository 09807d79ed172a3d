package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewHTTPServerTimeouts pins the listener's timeouts: a bounded header
// read and idle keep-alive, and no write deadline, which would cut off
// long-lived NDJSON event streams.
func TestNewHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (event streams are long-lived)", srv.WriteTimeout)
	}
}
