package server

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"abmm"
)

func testMatrix(r, c int, seed float64) *abmm.Matrix {
	m := abmm.NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = seed + float64(i)*0.5
	}
	return m
}

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Alg:    "ours",
		Levels: 2,
		A:      testMatrix(3, 4, 1),
		B:      testMatrix(4, 5, -2),
	}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if got, want := int64(buf.Len()), RequestWireSize(req); got != want {
		t.Fatalf("wire size %d, RequestWireSize says %d", got, want)
	}
	dec, err := DecodeRequest(&buf, 1<<20)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dec.Alg != req.Alg || dec.Levels != req.Levels {
		t.Fatalf("header mismatch: %q/%d", dec.Alg, dec.Levels)
	}
	for name, pair := range map[string][2]*abmm.Matrix{"a": {req.A, dec.A}, "b": {req.B, dec.B}} {
		want, got := pair[0], pair[1]
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s shape mismatch", name)
		}
		for i := range want.Data {
			// The codec must round-trip float64s bit-exactly.
			//abmm:allow float-discipline
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%s[%d]: %v != %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	c := testMatrix(2, 7, 3)
	var buf bytes.Buffer
	if err := EncodeResponse(&buf, c); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeResponse(&buf, 1<<20)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Rows != 2 || got.Cols != 7 {
		t.Fatalf("shape %dx%d", got.Rows, got.Cols)
	}
	for i := range c.Data {
		// Bit-exact round trip, as above.
		//abmm:allow float-discipline
		if c.Data[i] != got.Data[i] {
			t.Fatalf("c[%d]: %v != %v", i, got.Data[i], c.Data[i])
		}
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	good := func() []byte {
		var buf bytes.Buffer
		req := &Request{Alg: "ours", Levels: LevelsAuto, A: testMatrix(2, 2, 0), B: testMatrix(2, 2, 0)}
		if err := EncodeRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cases := map[string]struct {
		body     []byte
		maxElems int
	}{
		"bad magic": {append([]byte("NOPE"), good()[4:]...), 1 << 20},
		"truncated": {good()[:len(good())-9], 1 << 20},
		"empty":     {nil, 1 << 20},
		"over cap":  {good(), 3},
	}
	for name, tc := range cases {
		_, err := DecodeRequest(bytes.NewReader(tc.body), tc.maxElems)
		if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: want ErrFrame, got %v", name, err)
		}
	}
}

func TestWireUntracedStaysV1(t *testing.T) {
	// A request frame carries no trace context: it encodes as the v1
	// frame byte for byte, so clients and servers of every version
	// agree on it.
	req := &Request{Alg: "ours", Levels: 1, A: testMatrix(1, 1, 1), B: testMatrix(1, 1, -1)}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	want := []byte("ABM1\x04ours\x01" +
		"\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00" +
		"\x00\x00\x00\x00\x00\x00\xf0\x3f" + // a = 1
		"\x00\x00\x00\x00\x00\x00\xf0\xbf") // b = -1
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame % x, want % x", buf.Bytes(), want)
	}
	if _, err := DecodeRequest(&buf, 1<<20); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredABM2FrameRejected pins the one trace carrier: a frame in
// the retired ABM2 layout (the ABM1 header plus a flags byte and a
// 24-byte trace field) is a malformed frame to DecodeRequest and a 400
// to the handler; trace context travels in the traceparent header.
func TestRetiredABM2FrameRejected(t *testing.T) {
	req := &Request{Alg: "ours", Levels: 1, A: testMatrix(2, 2, 1), B: testMatrix(2, 2, -1)}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	v1 := buf.Bytes()
	hdrLen := 4 + 1 + len(req.Alg) + 1 + 12
	frame := append([]byte("ABM2"), v1[4:hdrLen]...)
	frame = append(frame, 0x01)                // flags: trace field present
	frame = append(frame, make([]byte, 24)...) // trace ID and parent span
	frame[len(frame)-1] = 0x42
	frame = append(frame, v1[hdrLen:]...)

	_, err := DecodeRequest(bytes.NewReader(frame), 1<<20)
	if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("ABM2 frame: want ErrFrame (bad magic), got %v", err)
	}

	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/multiply", ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "bad magic") {
		t.Fatalf("ABM2 frame: status %d (%s), want 400 bad magic", resp.StatusCode, msg)
	}
}

func TestCheckShapeOverflow(t *testing.T) {
	// Dimensions whose product overflows int64 must still be rejected;
	// the division form of the cap check cannot wrap. MaxInt32 keeps
	// the test building on 32-bit targets and its cube still overflows
	// int64.
	huge := math.MaxInt32
	if err := checkShape(huge, huge, huge, 1<<24); err == nil {
		t.Fatal("overflowing shape accepted")
	}
	if err := checkShape(0, 4, 4, 1<<24); err == nil || !strings.Contains(err.Error(), "non-positive") {
		t.Fatalf("zero dimension: %v", err)
	}
	if err := checkShape(4096, 4096, 4096, 16<<20); err != nil {
		t.Fatalf("4096 cube should fit the default cap: %v", err)
	}
}
