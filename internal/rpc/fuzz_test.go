package rpc

import (
	"bufio"
	"bytes"
	"testing"
)

// The VS3R decoders read bytes from outside the process. Each fuzz target
// checks two properties: no input panics, and whatever decodes re-encodes
// to bytes that decode back to the same value. The seed corpus (valid
// frames, requests and responses of every kind, plus truncated and
// out-of-range inputs) lives in testdata/fuzz/; `make fuzz-rpc` runs each
// target for a short budget.

func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(&byteReader{r: bufio.NewReader(bytes.NewReader(data))})
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFrame(&out, fr.typ, fr.stream, fr.payload); err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		again, err := readFrame(&byteReader{r: bufio.NewReader(&out)})
		if err != nil {
			t.Fatalf("decoding a re-encoded frame: %v", err)
		}
		if again.typ != fr.typ || again.stream != fr.stream || !bytes.Equal(again.payload, fr.payload) {
			t.Fatalf("frame round trip: got %+v want %+v", again, fr)
		}
	})
}

func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := decodeRequest(payload)
		if err != nil {
			return
		}
		enc, err := encodeRequest(req)
		if err != nil {
			t.Fatalf("re-encoding decoded %+v: %v", req, err)
		}
		again, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("decoding re-encoded %+v: %v", req, err)
		}
		if again != req {
			t.Fatalf("request round trip: got %+v want %+v", again, req)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := decodeResponse(payload)
		if err != nil {
			return
		}
		if resp.Status < minStatus || resp.Status > maxStatus {
			t.Fatalf("decoded status %d outside [%d, %d]", resp.Status, minStatus, maxStatus)
		}
		again, err := decodeResponse(encodeResponse(resp))
		if err != nil {
			t.Fatalf("decoding re-encoded %+v: %v", resp, err)
		}
		if again.Status != resp.Status || again.ProblemKey != resp.ProblemKey ||
			again.Backend != resp.Backend || !bytes.Equal(again.Body, resp.Body) {
			t.Fatalf("response round trip: got %+v want %+v", again, resp)
		}
	})
}
