package h3

import (
	"errors"
	"strings"
	"testing"
)

// TestParseResponseTooLong checks that a header line beyond the 1 MiB
// scanner buffer (the header-flood shape) surfaces as a structured
// ErrTooLong inside ErrMalformed rather than a bare bufio error.
func TestParseResponseTooLong(t *testing.T) {
	data := []byte(strings.Repeat("A", (1<<20)+64) + "\n\n")
	resp, err := parseWhole(data)
	if resp != nil {
		t.Fatal("response returned alongside an error")
	}
	if !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, must also match ErrMalformed", err)
	}
}

// TestParseResponseOversized checks that a declared content-length beyond
// MaxContentLength (the oversized-body shape) is rejected before any
// allocation trusts it.
func TestParseResponseOversized(t *testing.T) {
	data := []byte(Proto + " 200\ncontent-length: 268435456\nserver: h2o\n\n")
	resp, err := parseWhole(data)
	if resp != nil {
		t.Fatal("response returned alongside an error")
	}
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("err = %v, want ErrOversized", err)
	}
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, must also match ErrMalformed", err)
	}
	// A large-but-legal declaration is still only rejected for the body
	// mismatch, not as oversized.
	small := []byte(Proto + " 200\ncontent-length: 3\n\nabc")
	if _, err := parseWhole(small); err != nil {
		t.Fatalf("legal response rejected: %v", err)
	}
}

// TestParseRequestTooLong mirrors the response-side check on the request
// parser the websim server runs against scanner-originated streams.
func TestParseRequestTooLong(t *testing.T) {
	data := []byte(strings.Repeat("B", (1<<20)+64) + "\n\n")
	req, err := ParseRequest(data)
	if req != nil {
		t.Fatal("request returned alongside an error")
	}
	if !errors.Is(err, ErrTooLong) || !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrTooLong wrapped in ErrMalformed", err)
	}
}
