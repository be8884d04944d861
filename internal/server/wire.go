package server

// Binary wire format. A multiplication request is a small framed
// header followed by the two operands as row-major float64 payloads;
// the response is a framed header followed by the product. All integers
// and floats are little-endian, the native order of every platform the
// pure-Go kernels target.
//
//	request  = "ABM1" | algLen u8 | alg [algLen]byte | levels i8 |
//	           m u32 | k u32 | n u32 | a [m*k]f64 | b [k*n]f64
//	response = "ABMR" | m u32 | n u32 | c [m*n]f64
//
// levels is the recursion depth; LevelsAuto (-1) requests automatic
// selection. Any other magic, the retired "ABM2" included, is rejected
// as a malformed frame.
//
// On a little-endian host float64 storage already holds the payload's
// bytes, so the codec moves them without converting: a decode reads
// each operand with one io.ReadFull straight into its pooled storage,
// and an encode hands each contiguous matrix to the writer in one Write
// (a strided view, one Write per row). A big-endian host takes the
// portable path, which converts through a pooled chunk buffer; both
// paths write the same frames and decode the same bits.
//
// Request metadata that is not part of the product travels in HTTP
// headers (see server.go) so the payload stays a pure matrix: the
// caller's trace context in the traceparent request header; latency,
// compiled depth, the plan's error bound and the trace ID in response
// headers.
// JSON request/response bodies are the small-matrix echo alternative;
// see jsonRequest in server.go.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"

	"abmm"
	"abmm/internal/pool"
)

// ContentTypeBinary is the Content-Type of binary-framed multiplication
// requests and responses.
const ContentTypeBinary = "application/x-abmm-matrix"

// LevelsAuto is the wire levels value requesting automatic
// recursion-depth selection (abmm.AutoLevels).
const LevelsAuto = -1

var (
	reqMagic  = [4]byte{'A', 'B', 'M', '1'}
	respMagic = [4]byte{'A', 'B', 'M', 'R'}
)

// ErrFrame reports a malformed or truncated wire frame.
var ErrFrame = errors.New("server: malformed wire frame")

// errTruncated is prebuilt so the payload codec's error path stays
// allocation free.
var errTruncated = fmt.Errorf("%w: truncated frame", ErrFrame)

// Request is one decoded multiplication request: multiply A (m×k) by
// B (k×n) with the named catalog algorithm at the given recursion
// depth (LevelsAuto for automatic).
//
// A request returned by DecodeRequest holds A and B in storage drawn
// from the process-wide size-class pools (internal/pool). Call Release
// once nothing reads the operands any more to recycle that storage; a
// request that is never released simply leaves it to the GC.
type Request struct {
	Alg    string
	Levels int
	A, B   *abmm.Matrix

	// pooled marks A and B as drawn by DecodeRequest, so Release never
	// recycles storage a caller built and still owns.
	pooled bool
}

// Release returns the operand storage DecodeRequest drew to the pools
// and clears A and B. It is idempotent, and a no-op on requests that
// DecodeRequest did not build. The caller must not touch the old A or
// B afterwards: their storage is handed to the next request.
func (req *Request) Release() {
	if !req.pooled {
		return
	}
	req.pooled = false
	pool.Put(req.A.Data)
	pool.Put(req.B.Data)
	req.A, req.B = nil, nil
}

// rawPayload reports that float64 storage holds the wire's
// little-endian bytes, so payloads move as raw bytes. It is set once
// from the host's byte order; tests clear it to run the portable
// conversion loops, the big-endian path, on the same host. Library
// code never writes it.
var rawPayload = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wireChunk is the portable path's streaming buffer size: large
// enough to amortize io calls, small enough to stay cache-friendly.
const wireChunk = 4096 * 8

// chunks recycles the portable path's chunk buffers; a pointer to an
// array stores in the pool's interface without an allocation.
var chunks = sync.Pool{New: func() any { return new([wireChunk]byte) }}

// wireAlgs interns algorithm names: a decoded name that matches a
// catalog entry reuses the catalog's string instead of allocating one.
var wireAlgs = abmm.Names()

// maxHeader is the longest request header: magic, algLen, the longest
// name, levels and three dimensions.
const maxHeader = 4 + 1 + 255 + 1 + 12

// EncodeRequest writes req in the binary wire format.
func EncodeRequest(w io.Writer, req *Request) error {
	if len(req.Alg) > 255 {
		return fmt.Errorf("server: algorithm name %q too long", req.Alg)
	}
	if req.A.Cols != req.B.Rows {
		return fmt.Errorf("server: shapes %dx%d and %dx%d do not conform",
			req.A.Rows, req.A.Cols, req.B.Rows, req.B.Cols)
	}
	hdr := make([]byte, 0, 4+1+len(req.Alg)+1+12)
	hdr = append(hdr, reqMagic[:]...)
	hdr = append(hdr, byte(len(req.Alg)))
	hdr = append(hdr, req.Alg...)
	hdr = append(hdr, byte(int8(req.Levels)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(req.A.Rows))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(req.A.Cols))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(req.B.Cols))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if err := writeMatrix(w, req.A); err != nil {
		return err
	}
	return writeMatrix(w, req.B)
}

// DecodeRequest reads one binary request from r. maxElems bounds the
// element count of any single operand or the result; a frame that
// announces more is rejected before its payload is read. It reads
// exactly one frame and nothing past it.
//
// A and B of the returned request live in pooled storage; see
// Request.Release. On error DecodeRequest returns no request and keeps
// nothing it drew.
func DecodeRequest(r io.Reader, maxElems int) (*Request, error) {
	var hdr [maxHeader]byte
	if _, err := io.ReadFull(r, hdr[:5]); err != nil {
		return nil, frameErr(err)
	}
	if [4]byte(hdr[:4]) != reqMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFrame, hdr[:4])
	}
	algLen := int(hdr[4])
	fixed := hdr[5 : 5+algLen+1+12]
	if _, err := io.ReadFull(r, fixed); err != nil {
		return nil, frameErr(err)
	}
	rest := fixed[algLen:]
	levels := int(int8(rest[0]))
	m := int(binary.LittleEndian.Uint32(rest[1:5]))
	k := int(binary.LittleEndian.Uint32(rest[5:9]))
	n := int(binary.LittleEndian.Uint32(rest[9:13]))
	if err := checkShape(m, k, n, maxElems); err != nil {
		return nil, err
	}
	req := &Request{Alg: internAlg(fixed[:algLen]), Levels: levels}
	a, b, err := readOperands(r, m, k, n)
	if err != nil {
		pool.Put(a)
		pool.Put(b)
		return nil, err
	}
	req.A, req.B = &abmm.Matrix{}, &abmm.Matrix{}
	req.A.Init(m, k, a)
	req.B.Init(k, n, b)
	req.pooled = true
	return req, nil
}

// internAlg returns the catalog's own string for a known name, and a
// fresh copy of any other (which the handler then refuses with 404).
func internAlg(name []byte) string {
	for _, s := range wireAlgs {
		if string(name) == s {
			return s
		}
	}
	return string(name)
}

// readOperands draws the storage of A (m×k) and B (k×n) from the pools
// and fills it from r. Every element is overwritten, so dirty recycled
// storage never shows. On error it returns whatever it drew, for the
// caller to put back.
//
//abmm:hotpath
func readOperands(r io.Reader, m, k, n int) (a, b []float64, err error) {
	a = pool.Get(m * k)
	if err = readFloats(r, a); err != nil {
		return a, nil, err
	}
	b = pool.Get(k * n)
	return a, b, readFloats(r, b)
}

// frameEnd checks that r holds nothing past a decoded frame.
func frameEnd(r io.Reader) error {
	var one [1]byte
	switch _, err := io.ReadFull(r, one[:]); {
	case err == nil:
		return fmt.Errorf("%w: trailing bytes after the frame", ErrFrame)
	case errors.Is(err, io.EOF):
		return nil
	default:
		return err
	}
}

// EncodeResponse writes the product in the binary wire format.
func EncodeResponse(w io.Writer, c *abmm.Matrix) error {
	var hdr [12]byte
	copy(hdr[:4], respMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(c.Rows))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(c.Cols))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	return writeMatrix(w, c)
}

// DecodeResponse reads one binary response from r. maxElems bounds the
// announced result size, as in DecodeRequest.
func DecodeResponse(r io.Reader, maxElems int) (*abmm.Matrix, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, frameErr(err)
	}
	if [4]byte(hdr[:4]) != respMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFrame, hdr[:4])
	}
	m := int(binary.LittleEndian.Uint32(hdr[4:8]))
	n := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if m < 0 || n < 0 || (n > 0 && m > maxElems/max(n, 1)) {
		return nil, fmt.Errorf("%w: result %dx%d exceeds element cap %d", ErrFrame, m, n, maxElems)
	}
	c := abmm.NewMatrix(m, n)
	if err := readFloats(r, c.Data); err != nil {
		return nil, err
	}
	return c, nil
}

// RequestWireSize returns the exact encoded byte length of a request,
// for Content-Length headers and admission-time body caps.
func RequestWireSize(req *Request) int64 {
	return int64(4+1+len(req.Alg)+1+12) + 8*int64(req.A.Rows*req.A.Cols+req.B.Rows*req.B.Cols)
}

func checkShape(m, k, n, maxElems int) error {
	if m <= 0 || k <= 0 || n <= 0 {
		return fmt.Errorf("%w: non-positive shape %dx%d·%dx%d", ErrFrame, m, k, k, n)
	}
	for _, d := range [3][2]int{{m, k}, {k, n}, {m, n}} {
		if d[0] > maxElems/d[1] {
			return fmt.Errorf("%w: operand %dx%d exceeds element cap %d", ErrFrame, d[0], d[1], maxElems)
		}
	}
	return nil
}

func frameErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errTruncated
	}
	return err
}

// writeMatrix writes a matrix row-major as little-endian float64s: its
// storage as is on the raw path, in one Write when the rows are
// contiguous and one per row for a strided view.
//
//abmm:hotpath
func writeMatrix(w io.Writer, m *abmm.Matrix) error {
	if !rawPayload {
		return writeMatrixPortable(w, m)
	}
	if m.Stride == m.Cols {
		_, err := w.Write(payloadBytes(m.Data[:m.Rows*m.Cols]))
		return err
	}
	for i := 0; i < m.Rows; i++ {
		if _, err := w.Write(payloadBytes(m.Row(i))); err != nil {
			return err
		}
	}
	return nil
}

// readFloats fills dst from r: on the raw path with one io.ReadFull
// into dst's storage, which an io.Reader must not retain.
//
//abmm:hotpath
func readFloats(r io.Reader, dst []float64) error {
	if !rawPayload {
		return readFloatsPortable(r, dst)
	}
	if _, err := io.ReadFull(r, payloadBytes(dst)); err != nil {
		return frameErr(err)
	}
	return nil
}

// payloadBytes views f's storage as the bytes the raw path moves.
func payloadBytes(f []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 8*len(f))
}

// writeMatrixPortable is writeMatrix on any byte order, the path of
// big-endian hosts: it converts a whole run of a row per pass into one
// pooled chunk buffer.
func writeMatrixPortable(w io.Writer, m *abmm.Matrix) error {
	buf := chunks.Get().(*[wireChunk]byte)
	defer chunks.Put(buf)
	used := 0
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for len(row) > 0 {
			run := row[:min(len(row), (wireChunk-used)/8)]
			out := buf[used : used+8*len(run)]
			for j, v := range run {
				binary.LittleEndian.PutUint64(out[8*j:], math.Float64bits(v))
			}
			used += len(out)
			row = row[len(run):]
			if used == wireChunk {
				if _, err := w.Write(buf[:]); err != nil {
					return err
				}
				used = 0
			}
		}
	}
	if used > 0 {
		if _, err := w.Write(buf[:used]); err != nil {
			return err
		}
	}
	return nil
}

// readFloatsPortable is readFloats on any byte order, the path of
// big-endian hosts: it decodes one pooled chunk of little-endian
// float64s at a time.
func readFloatsPortable(r io.Reader, dst []float64) error {
	buf := chunks.Get().(*[wireChunk]byte)
	defer chunks.Put(buf)
	for len(dst) > 0 {
		run := dst[:min(len(dst), wireChunk/8)]
		in := buf[:8*len(run)]
		if _, err := io.ReadFull(r, in); err != nil {
			return frameErr(err)
		}
		for j := range run {
			run[j] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*j:]))
		}
		dst = dst[len(run):]
	}
	return nil
}
