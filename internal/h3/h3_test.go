package h3

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Method:    "GET",
		Authority: "www.example.com",
		Path:      "/index.html",
		Headers:   map[string]string{"user-agent": "quicspin-scanner/1.0", "x-research": "https://measurement.example/optout"},
	}
	got, err := ParseRequest(EncodeRequest(req))
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if got.Method != req.Method || got.Authority != req.Authority || got.Path != req.Path {
		t.Errorf("request = %+v", got)
	}
	if got.Headers["user-agent"] != req.Headers["user-agent"] {
		t.Errorf("headers = %v", got.Headers)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{
		Status:  200,
		Headers: map[string]string{"server": "LiteSpeed", "content-type": "text/html"},
		Body:    []byte("<html>hello\n\nworld</html>"),
	}
	got, err := parseWhole(encodeWhole(resp))
	if err != nil {
		t.Fatalf("ParseResponseHead: %v", err)
	}
	if got.Status != 200 || got.Server() != "LiteSpeed" {
		t.Errorf("response = %+v", got)
	}
	if got.BodyLen != len(resp.Body) || got.Body != nil {
		t.Errorf("body length = %d, body = %q", got.BodyLen, got.Body)
	}
}

// encodeWhole returns a response's whole stream: its head, then its body.
func encodeWhole(resp *Response) []byte {
	return append(EncodeResponseHead(resp), resp.Body...)
}

// parseWhole parses a whole response stream.
func parseWhole(data []byte) (*Response, error) {
	return ParseResponseHead(data, len(data))
}

func TestParseResponseHeadCountsBody(t *testing.T) {
	resp := &Response{
		Status:  200,
		Headers: map[string]string{"server": "h2o"},
		Body:    bytes.Repeat([]byte("x"), 5000),
	}
	head := EncodeResponseHead(resp)
	whole := encodeWhole(resp)
	got, err := ParseResponseHead(head, len(whole))
	if err != nil {
		t.Fatalf("ParseResponseHead: %v", err)
	}
	if got.Status != 200 || got.Server() != "h2o" || got.BodyLen != 5000 || len(got.Body) != 0 {
		t.Errorf("response = %+v", got)
	}
	if full, err := parseWhole(whole); err != nil || full.BodyLen != 5000 {
		t.Errorf("whole stream parses as %+v, %v", full, err)
	}
	for _, c := range []struct {
		name      string
		data      []byte
		streamLen int
	}{
		{"short body", head, len(whole) - 1},
		{"long body", head, len(whole) + 1},
		{"open header block", head[:len(head)-1], len(whole)},
		{"stream shorter than data", whole, len(whole) - 1},
	} {
		if _, err := ParseResponseHead(c.data, c.streamLen); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", c.name, err)
		}
	}
}

func TestRedirect(t *testing.T) {
	r := &Response{Status: 301, Headers: map[string]string{"location": "https://www.example.org/"}}
	got, err := parseWhole(encodeWhole(r))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsRedirect() || got.Location() != "https://www.example.org/" {
		t.Errorf("redirect = %+v", got)
	}
	plain := &Response{Status: 200, Headers: map[string]string{}}
	if plain.IsRedirect() {
		t.Error("200 classified as redirect")
	}
	noLoc := &Response{Status: 302, Headers: map[string]string{}}
	if noLoc.IsRedirect() {
		t.Error("redirect without location classified as redirect")
	}
}

func TestParseRequestErrors(t *testing.T) {
	cases := []string{
		"",
		"GET /\n",
		"GET / HTTP/9\n\n",
		"GET / HTTP/3-lite\nbadheader\n\n",
	}
	for _, c := range cases {
		if _, err := ParseRequest([]byte(c)); err == nil {
			t.Errorf("ParseRequest(%q) succeeded", c)
		}
	}
}

func TestParseResponseErrors(t *testing.T) {
	cases := []string{
		"",
		"HTTP/3-lite 200\n", // no terminator
		"HTTP/3-lite abc\n\n",
		"BOGUS 200\n\n",
		"HTTP/3-lite 200\ncontent-length: 5\n\nabc", // length mismatch
	}
	for _, c := range cases {
		if _, err := parseWhole([]byte(c)); err == nil {
			t.Errorf("parsing %q succeeded", c)
		}
	}
}

func TestHeadersLowercasedAndSorted(t *testing.T) {
	req := &Request{Method: "GET", Authority: "a", Path: "/", Headers: map[string]string{"B-Key": "2", "A-Key": "1"}}
	enc := string(EncodeRequest(req))
	if !strings.Contains(enc, "a-key: 1\nb-key: 2\n") {
		t.Errorf("headers not sorted/lowercased:\n%s", enc)
	}
}

func TestResponseQuickRoundTrip(t *testing.T) {
	f := func(status uint16, body []byte, server string) bool {
		server = strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, server)
		in := &Response{
			Status:  int(status%599) + 100,
			Headers: map[string]string{"server": server},
			Body:    body,
		}
		out, err := parseWhole(encodeWhole(in))
		if err != nil {
			return false
		}
		return out.Status == in.Status && out.BodyLen == len(in.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeParseResponse(b *testing.B) {
	resp := &Response{Status: 200, Headers: map[string]string{"server": "LiteSpeed"}, Body: make([]byte, 4096)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parseWhole(encodeWhole(resp)); err != nil {
			b.Fatal(err)
		}
	}
}
