package server

// Fuzz coverage for the binary frame decoder: DecodeRequest must never
// panic on adversarial input, every rejection must be an ErrFrame (the
// handler maps those to 400s; anything else would surface as a 500),
// and every accepted frame must satisfy the decoder's contract — shapes
// within the element cap, and a lossless re-encode round trip that
// decodes into the recycled, dirty storage the first decode released.

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"abmm"
	"abmm/internal/reqtrace"
)

// fuzzMaxElems keeps accepted payloads small so the fuzzer spends its
// time on header shapes, not on streaming megabytes of floats.
const fuzzMaxElems = 1 << 10

// fuzzSeedFrame encodes a small valid request through the production
// encoder, so the corpus starts from byte-exact v1 and v2 frames.
func fuzzSeedFrame(tb testing.TB, traced bool) []byte {
	tb.Helper()
	a := abmm.NewMatrix(2, 3)
	b := abmm.NewMatrix(3, 2)
	for i := range a.Data {
		a.Data[i] = float64(i) - 2.5
	}
	for i := range b.Data {
		b.Data[i] = 1.0 / float64(i+1)
	}
	req := &Request{Alg: "strassen", Levels: LevelsAuto, A: a, B: b}
	if traced {
		req.TraceID = reqtrace.ID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
		req.TraceSpan = 42
	}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, req); err != nil {
		tb.Fatalf("EncodeRequest: %v", err)
	}
	return buf.Bytes()
}

func FuzzDecodeFrame(f *testing.F) {
	v1 := fuzzSeedFrame(f, false)
	v2 := fuzzSeedFrame(f, true)
	f.Add(v1)
	f.Add(v2)
	// Truncations at every structural boundary: mid-magic, mid-header,
	// after the flags byte, mid-trace-field, mid-payload.
	for _, cut := range []int{0, 3, 5, 9, 18, 19, 30, len(v1) - 1} {
		if cut <= len(v1) {
			f.Add(v1[:cut])
		}
		if cut <= len(v2) {
			f.Add(v2[:cut])
		}
	}
	// A v2 frame with an unknown flag bit, and with the trace flag
	// cleared (header shrinks by the 24-byte field).
	bad := append([]byte(nil), v2...)
	bad[18] |= 0x80
	f.Add(bad)
	f.Add([]byte("ABM2\x00\xff\x01\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00\x00"))
	// Oversized announced shapes must be rejected before any payload
	// allocation.
	f.Add([]byte("ABM1\x00\xff\xff\xff\xff\x7f\xff\xff\xff\x7f\xff\xff\xff\x7f"))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(bytes.NewReader(data), fuzzMaxElems)
		if err != nil {
			if req != nil {
				t.Fatalf("DecodeRequest returned both a request and error %v", err)
			}
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("rejection is not an ErrFrame: %v", err)
			}
			return
		}
		m, k := req.A.Rows, req.A.Cols
		n := req.B.Cols
		if m <= 0 || k <= 0 || n <= 0 {
			t.Fatalf("accepted non-positive shape %dx%d·%dx%d", m, k, k, n)
		}
		if m*k > fuzzMaxElems || k*n > fuzzMaxElems || m*n > fuzzMaxElems {
			t.Fatalf("accepted shape %dx%d·%dx%d beyond cap %d", m, k, k, n, fuzzMaxElems)
		}
		if req.B.Rows != k {
			t.Fatalf("operands do not conform: %dx%d · %dx%d", m, k, req.B.Rows, n)
		}

		// Round trip through the production encoder. The re-encoded
		// frame picks its own version (v1 when the trace ID is zero), so
		// compare decoded fields, not bytes.
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, req); err != nil {
			t.Fatalf("re-encode of accepted frame: %v", err)
		}
		if got := int64(buf.Len()); got != RequestWireSize(req) {
			t.Fatalf("RequestWireSize = %d, encoded %d bytes", RequestWireSize(req), got)
		}
		wantA := append([]float64(nil), req.A.Data...)
		wantB := append([]float64(nil), req.B.Data...)
		req.Release()
		req.Release() // idempotent
		re, err := DecodeRequest(bytes.NewReader(buf.Bytes()), fuzzMaxElems)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame: %v", err)
		}
		defer re.Release()
		if re.Alg != req.Alg || re.Levels != req.Levels {
			t.Fatalf("round trip changed alg/levels: %q/%d -> %q/%d",
				req.Alg, req.Levels, re.Alg, re.Levels)
		}
		if re.A.Rows != m || re.A.Cols != k || re.B.Rows != k || re.B.Cols != n {
			t.Fatalf("round trip changed shape: %dx%d·%dx%d -> %dx%d·%dx%d",
				m, k, k, n, re.A.Rows, re.A.Cols, re.B.Rows, re.B.Cols)
		}
		for i := range wantA {
			if math.Float64bits(re.A.Data[i]) != math.Float64bits(wantA[i]) {
				t.Fatalf("A[%d] changed bits: %x -> %x", i,
					math.Float64bits(wantA[i]), math.Float64bits(re.A.Data[i]))
			}
		}
		for i := range wantB {
			if math.Float64bits(re.B.Data[i]) != math.Float64bits(wantB[i]) {
				t.Fatalf("B[%d] changed bits: %x -> %x", i,
					math.Float64bits(wantB[i]), math.Float64bits(re.B.Data[i]))
			}
		}
		// Trace context survives exactly when the frame carried a
		// non-zero trace ID: a zero ID re-encodes as v1 by design, which
		// drops any stray span value the fuzzer put next to it.
		if !req.TraceID.IsZero() {
			if re.TraceID != req.TraceID || re.TraceSpan != req.TraceSpan {
				t.Fatalf("round trip changed trace context: %v/%d -> %v/%d",
					req.TraceID, req.TraceSpan, re.TraceID, re.TraceSpan)
			}
		} else if !re.TraceID.IsZero() {
			t.Fatalf("zero trace ID re-decoded as %v", re.TraceID)
		}
	})
}
