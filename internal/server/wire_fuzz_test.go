package server

// Fuzz coverage for the binary frame decoder: DecodeRequest must never
// panic on adversarial input, every rejection must be an ErrFrame (the
// handler maps those to 400s; anything else would surface as a 500),
// and every accepted frame must satisfy the decoder's contract — shapes
// within the element cap, the portable path's verdict and bits, and a
// lossless re-encode round trip that decodes into the recycled, dirty
// storage the first decode released.

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"abmm"
)

// fuzzMaxElems keeps accepted payloads small so the fuzzer spends its
// time on header shapes, not on streaming megabytes of floats.
const fuzzMaxElems = 1 << 10

// fuzzSeedFrame encodes a small valid request through the production
// encoder, so the corpus starts from byte-exact frames. vals overwrite
// the operands' leading elements, A's first and then B's.
func fuzzSeedFrame(tb testing.TB, vals ...float64) []byte {
	tb.Helper()
	a := abmm.NewMatrix(2, 3)
	b := abmm.NewMatrix(3, 2)
	for i := range a.Data {
		a.Data[i] = float64(i) - 2.5
	}
	for i := range b.Data {
		b.Data[i] = 1.0 / float64(i+1)
	}
	copy(b.Data, vals[copy(a.Data, vals):])
	req := &Request{Alg: "strassen", Levels: LevelsAuto, A: a, B: b}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, req); err != nil {
		tb.Fatalf("EncodeRequest: %v", err)
	}
	return buf.Bytes()
}

func FuzzDecodeFrame(f *testing.F) {
	v1 := fuzzSeedFrame(f)
	f.Add(v1)
	// Truncations at every structural boundary: mid-magic, after the
	// name length, mid-name, mid-dimensions, mid-payload.
	for _, cut := range []int{0, 3, 5, 9, 18, 19, 30, len(v1) - 1} {
		f.Add(v1[:cut])
	}
	// Oversized announced shapes must be rejected before any payload
	// allocation.
	f.Add([]byte("ABM1\x00\xff\xff\xff\xff\x7f\xff\xff\xff\x7f\xff\xff\xff\x7f"))
	// Non-finite and extreme payloads: the decoder accepts any float
	// bits, and the round trip below must keep each one bit for bit.
	for _, v := range specialFloats {
		f.Add(fuzzSeedFrame(f, v))
	}
	// All of them at once, in both operands.
	f.Add(fuzzSeedFrame(f, specialFloats...))
	reversed := slices.Clone(specialFloats)
	slices.Reverse(reversed)
	f.Add(fuzzSeedFrame(f, reversed...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The portable path, the one big-endian hosts run, is the
		// reference: the host's path must reach its verdict and, on
		// an accepted frame, its bits.
		ref, refErr := decodePortable(data)
		if ref != nil {
			defer ref.Release()
		}
		req, err := DecodeRequest(bytes.NewReader(data), fuzzMaxElems)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("DecodeRequest returned %v, the portable path %v", err, refErr)
		}
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
		if req.Alg != ref.Alg || req.Levels != ref.Levels {
			t.Fatalf("alg/levels %q/%d, the portable path %q/%d", req.Alg, req.Levels, ref.Alg, ref.Levels)
		}
		requireSameBits(t, "A", ref.A, req.A)
		requireSameBits(t, "B", ref.B, req.B)

		// Round trip through the production encoder: there is one
		// frame layout, so the accepted frame re-encodes byte for byte
		// (data may run on past it; DecodeRequest reads one frame).
		var buf bytes.Buffer
		if err := EncodeRequest(&buf, req); err != nil {
			t.Fatalf("re-encode of accepted frame: %v", err)
		}
		if got := int64(buf.Len()); got != RequestWireSize(req) {
			t.Fatalf("RequestWireSize = %d, encoded %d bytes", RequestWireSize(req), got)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("re-encoded frame % x differs from the accepted % x", buf.Bytes(), data[:buf.Len()])
		}
		req.Release()
		req.Release() // idempotent
		re, err := DecodeRequest(bytes.NewReader(buf.Bytes()), fuzzMaxElems)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame: %v", err)
		}
		defer re.Release()
		if re.Alg != ref.Alg || re.Levels != ref.Levels {
			t.Fatalf("round trip changed alg/levels: %q/%d -> %q/%d",
				ref.Alg, ref.Levels, re.Alg, re.Levels)
		}
		requireSameBits(t, "re-decoded A", ref.A, re.A)
		requireSameBits(t, "re-decoded B", ref.B, re.B)
	})
}

// decodePortable decodes data through the portable path, whatever the
// host's byte order.
func decodePortable(data []byte) (*Request, error) {
	defer func(prev bool) { rawPayload = prev }(rawPayload)
	rawPayload = false
	return DecodeRequest(bytes.NewReader(data), fuzzMaxElems)
}
