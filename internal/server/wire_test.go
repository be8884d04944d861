package server

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"abmm"
	"abmm/internal/reqtrace"
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

func TestWireV2TraceRoundTrip(t *testing.T) {
	req := &Request{
		Alg: "ours", Levels: 1,
		A: testMatrix(2, 3, 1), B: testMatrix(3, 2, -1),
		TraceID:   reqtrace.ID{Hi: 0xa1b2c3d4e5f60718, Lo: 0x1122334455667788},
		TraceSpan: 0xcafebabe,
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
	if dec.TraceID != req.TraceID || dec.TraceSpan != req.TraceSpan {
		t.Fatalf("trace context %v/%#x, want %v/%#x", dec.TraceID, dec.TraceSpan, req.TraceID, req.TraceSpan)
	}
}

func TestWireUntracedStaysV1(t *testing.T) {
	// An untraced request must encode as a byte-identical v1 frame so
	// new clients keep working against pre-v2 servers.
	req := &Request{Alg: "ours", Levels: 1, A: testMatrix(2, 2, 1), B: testMatrix(2, 2, -1)}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:4]; string(got) != "ABM1" {
		t.Fatalf("untraced request encoded with magic %q, want ABM1", got)
	}
	dec, err := DecodeRequest(&buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.TraceID.IsZero() || dec.TraceSpan != 0 {
		t.Fatalf("v1 frame decoded trace context %v/%#x", dec.TraceID, dec.TraceSpan)
	}
}

func TestWireV2RejectsUnknownFlags(t *testing.T) {
	req := &Request{
		Alg: "ours", Levels: 1, A: testMatrix(2, 2, 1), B: testMatrix(2, 2, -1),
		TraceID: reqtrace.ID{Lo: 1},
	}
	var buf bytes.Buffer
	if err := EncodeRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	// The flags byte sits after magic+algLen+alg+levels+3×u32.
	flagsOff := 4 + 1 + len(req.Alg) + 1 + 12
	frame[flagsOff] |= 0x80
	if _, err := DecodeRequest(bytes.NewReader(frame), 1<<20); !errors.Is(err, ErrFrame) {
		t.Fatalf("unknown flag bits: want ErrFrame, got %v", err)
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
