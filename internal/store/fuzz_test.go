package store

import (
	"bytes"
	"testing"
	"unicode/utf8"
)

// The knowledge log and the outcome digest are read from outside the
// process: the log from disk (possibly written by another build, or
// damaged), the digest from a peer. Each fuzz target checks that no input
// panics and that whatever parses survives a render-and-parse round trip.
// The seed corpus lives in testdata/fuzz/; `make fuzz-store` runs each
// target for a short budget.

// FuzzDecodeRecord fuzzes one log line (without its newline): a record that
// decodes must re-encode to a line that decodes to a record encoding to the
// same bytes.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		rec, ok := decode(line)
		if !ok {
			return
		}
		enc, err := encode(rec)
		if err != nil {
			t.Fatalf("re-encoding decoded %+v: %v", rec, err)
		}
		again, ok := decode(bytes.TrimSuffix(enc, []byte("\n")))
		if !ok {
			t.Fatalf("decoding re-encoded line %q", enc)
		}
		enc2, err := encode(again)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", again, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("record round trip:\n got  %q\n want %q", enc2, enc)
		}
	})
}

// FuzzCheckHeaderLine fuzzes the log's first line against a params
// fingerprint: a line the check accepts must decode to a header carrying
// this version and those params, and the header this build writes for
// params must pass the check.
func FuzzCheckHeaderLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte, params string) {
		if err := checkHeaderLine(line, params); err == nil {
			rec, ok := decode(line)
			if !ok || rec.T != "hdr" || rec.Version != version || rec.Params != params {
				t.Fatalf("accepted header %q decodes to %+v (ok=%v)", line, rec, ok)
			}
		}
		if !utf8.ValidString(params) {
			return // JSON cannot carry it; real fingerprints are ASCII
		}
		hdr, err := encode(record{T: "hdr", Version: version, Params: params})
		if err != nil {
			t.Fatalf("encoding header for %q: %v", params, err)
		}
		if err := checkHeaderLine(bytes.TrimSuffix(hdr, []byte("\n")), params); err != nil {
			t.Fatalf("own header for %q rejected: %v", params, err)
		}
	})
}

// FuzzParseBloomDigest fuzzes the digest wire form: a digest that parses
// must re-render to the same b1: string.
func FuzzParseBloomDigest(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseBloomDigest(s)
		if err != nil {
			return
		}
		if got := d.String(); got != s {
			t.Fatalf("digest round trip: parsed %q renders as %q", s, got)
		}
		d.Contains(s)
	})
}
