package server

import (
	"bytes"
	"errors"
	"fmt"
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

// specialFloats are payload values a codec could mangle: NaNs with
// payload bits (quiet, signaling, negative), the infinities, negative
// zero, the smallest subnormals and the largest finite values. The
// decoder accepts any float bits and must keep each one bit for bit.
var specialFloats = []float64{
	math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN with payload bits
	math.Float64frombits(0x7ff0_0000_0000_0001), // signaling NaN
	math.Float64frombits(0xfff8_0000_0000_0042), // negative NaN with payload bits
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
}

// hostRawPayload is the payload path this host picked: the raw path
// runs in tests only where the host is little-endian.
var hostRawPayload = rawPayload

// payloadPaths lists the payload codec paths this host runs: the
// portable conversion loops everywhere, then the raw path on
// little-endian hosts.
func payloadPaths() []bool {
	if hostRawPayload {
		return []bool{false, true}
	}
	return []bool{false}
}

var payloadPathNames = map[bool]string{false: "portable", true: "raw"}

// setRawPayload switches the payload codec path until the test ends.
func setRawPayload(tb testing.TB, raw bool) {
	prev := rawPayload
	rawPayload = raw
	tb.Cleanup(func() { rawPayload = prev })
}

// withSpecials writes specialFloats over m's leading elements in
// row-major order, and returns m.
func withSpecials(m *abmm.Matrix) *abmm.Matrix {
	for i, v := range specialFloats[:min(len(specialFloats), m.Rows*m.Cols)] {
		m.Set(i/m.Cols, i%m.Cols, v)
	}
	return m
}

// requireSameBits fails unless got holds want's shape and, element by
// element, its exact bits.
func requireSameBits(t *testing.T, name string, want, got *abmm.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if g, w := math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)); g != w {
				t.Fatalf("%s[%d,%d]: bits %#x, want %#x", name, i, j, g, w)
			}
		}
	}
}

// TestRequestRoundTrip encodes and decodes one request under every
// payload path the host runs: A is a strided view of a wider matrix,
// and both operands lead with specialFloats. Every path must write the
// same frame and decode the operands' exact bits.
func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Alg:    "ours",
		Levels: 2,
		A:      withSpecials(testMatrix(5, 9, 1).View(1, 2, 3, 4)), // row stride 9
		B:      withSpecials(testMatrix(4, 5, -2)),
	}
	var first []byte
	for _, raw := range payloadPaths() {
		t.Run(payloadPathNames[raw], func(t *testing.T) {
			setRawPayload(t, raw)
			var buf bytes.Buffer
			if err := EncodeRequest(&buf, req); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if got, want := int64(buf.Len()), RequestWireSize(req); got != want {
				t.Fatalf("wire size %d, RequestWireSize says %d", got, want)
			}
			if first == nil {
				first = bytes.Clone(buf.Bytes())
			} else if !bytes.Equal(buf.Bytes(), first) {
				t.Fatalf("frame % x differs from the portable path's % x", buf.Bytes(), first)
			}
			dec, err := DecodeRequest(&buf, 1<<20)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			defer dec.Release()
			if dec.Alg != req.Alg || dec.Levels != req.Levels {
				t.Fatalf("header mismatch: %q/%d", dec.Alg, dec.Levels)
			}
			requireSameBits(t, "a", req.A, dec.A)
			requireSameBits(t, "b", req.B, dec.B)
		})
	}
}

// TestResponseRoundTrip does the same for responses, from a
// contiguous product and from a strided view.
func TestResponseRoundTrip(t *testing.T) {
	for name, m := range map[string]*abmm.Matrix{
		"contiguous": withSpecials(testMatrix(2, 7, 3)),
		"view":       withSpecials(testMatrix(3, 9, 3).View(1, 2, 2, 6)),
	} {
		var first []byte
		for _, raw := range payloadPaths() {
			t.Run(name+"/"+payloadPathNames[raw], func(t *testing.T) {
				setRawPayload(t, raw)
				var buf bytes.Buffer
				if err := EncodeResponse(&buf, m); err != nil {
					t.Fatalf("encode: %v", err)
				}
				if got, want := buf.Len(), 12+8*m.Rows*m.Cols; got != want {
					t.Fatalf("response is %d bytes, want %d", got, want)
				}
				if first == nil {
					first = bytes.Clone(buf.Bytes())
				} else if !bytes.Equal(buf.Bytes(), first) {
					t.Fatalf("frame % x differs from the portable path's % x", buf.Bytes(), first)
				}
				got, err := DecodeResponse(&buf, 1<<20)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				requireSameBits(t, "c", m, got)
			})
		}
	}
}

func TestDecodeRequestRejects(t *testing.T) {
	req := &Request{Alg: "ours", Levels: LevelsAuto, A: testMatrix(2, 2, 0), B: testMatrix(2, 2, 0)}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	aStart := len(good) - 8*(2*2+2*2) // A's first byte
	bStart := aStart + 8*2*2          // the A/B boundary

	cases := []struct {
		name, body string
		maxElems   int
		want       string
	}{
		{"bad magic", "NOPE" + string(good[4:]), 1 << 20, "bad magic"},
		{"empty", "", 1 << 20, "truncated frame"},
		{"over cap", string(good), 3, "exceeds element cap"},
		{"cut inside A", string(good[:aStart+8+3]), 1 << 20, "truncated frame"},
		{"cut at the A/B boundary", string(good[:bStart]), 1 << 20, "truncated frame"},
		{"cut inside B", string(good[:len(good)-9]), 1 << 20, "truncated frame"},
	}
	for _, raw := range payloadPaths() {
		setRawPayload(t, raw)
		for _, tc := range cases {
			req, err := DecodeRequest(strings.NewReader(tc.body), tc.maxElems)
			if req != nil || !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s/%s: got %v and %v, want no request and ErrFrame (%s)",
					payloadPathNames[raw], tc.name, req, err, tc.want)
			}
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

// BenchmarkWireCodec measures the payload codec against the copy it
// approaches, on serve-small's 64² and 256² frames, under every payload
// path the host runs. decode is DecodeRequest and Release of a request
// frame read from a bytes.Reader; encode is EncodeResponse of an n×n
// product to io.Discard, which takes the bytes without copying them,
// so the raw path's rate there is the codec's own cost and the one copy
// left is the writer's. copy is the ceiling: the built-in copy of the
// request's operand bytes from where they sit in the frame (after a
// 22-byte header, so not 8-byte aligned) into float64 storage. GB/s
// counts each frame's bytes.
func BenchmarkWireCodec(b *testing.B) {
	for _, n := range []int{64, 256} {
		req := &Request{Alg: "ours", A: testMatrix(n, n, 1), B: testMatrix(n, n, -2)}
		var frame bytes.Buffer
		if err := EncodeRequest(&frame, req); err != nil {
			b.Fatal(err)
		}
		reqBytes, respBytes := float64(frame.Len()), float64(12+8*n*n)
		b.Run(fmt.Sprintf("copy/n=%d", n), func(b *testing.B) {
			operands := frame.Bytes()[frame.Len()-16*n*n:]
			dst := payloadBytes(make([]float64, 2*n*n))
			for i := 0; i < b.N; i++ {
				copy(dst, operands)
			}
			b.ReportMetric(reqBytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
		for _, raw := range payloadPaths() {
			b.Run(fmt.Sprintf("decode/%s/n=%d", payloadPathNames[raw], n), func(b *testing.B) {
				setRawPayload(b, raw)
				r := bytes.NewReader(nil)
				for i := 0; i < b.N; i++ {
					r.Reset(frame.Bytes())
					dec, err := DecodeRequest(r, n*n)
					if err != nil {
						b.Fatal(err)
					}
					dec.Release()
				}
				b.ReportMetric(reqBytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
			b.Run(fmt.Sprintf("encode/%s/n=%d", payloadPathNames[raw], n), func(b *testing.B) {
				setRawPayload(b, raw)
				for i := 0; i < b.N; i++ {
					if err := EncodeResponse(io.Discard, req.A); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(respBytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
	}
}
