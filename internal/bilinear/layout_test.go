package bilinear_test

import (
	"fmt"
	"math"
	"testing"

	"abmm/internal/bilinear"
	"abmm/internal/matrix"
	"abmm/internal/pool"
)

// layoutShapes are the matrices the layout tests stack: one that 2×2
// partitions divide at every depth tested and three ragged ones.
var layoutShapes = [][2]int{{24, 24}, {23, 21}, {9, 2}, {1, 1}}

func TestLayoutRoundTrip(t *testing.T) {
	for _, sh := range layoutShapes {
		m := matrix.New(sh[0], sh[1])
		m.FillUniform(matrix.Rand(uint64(sh[0]*sh[1])), -1, 1)
		for _, part := range [][2]int{{2, 2}, {3, 2}} {
			p, q := part[0], part[1]
			for l := 0; l <= 3; l++ {
				for _, w := range []int{1, 2} {
					s := bilinear.ToRecursive(m, p, q, l, w)
					pm, pk, _ := matrix.PadShape(m.Rows, m.Cols, 1, p, q, 1, l)
					if s.Rows*s.Cols != pm*pk {
						t.Fatalf("%dx%d %dx%d L=%d: stacked %dx%d, want %d elements", m.Rows, m.Cols, p, q, l, s.Rows, s.Cols, pm*pk)
					}
					back := matrix.New(m.Rows, m.Cols)
					bilinear.FromRecursive(s, back, p, q, l, w)
					if !matrix.Equal(back, m) {
						t.Fatalf("%dx%d %dx%d L=%d w=%d: layout round trip failed", m.Rows, m.Cols, p, q, l, w)
					}
				}
			}
		}
	}
}

func TestLayoutRectangular(t *testing.T) {
	m := matrix.New(18, 32)
	m.FillUniform(matrix.Rand(3), -1, 1)
	// 3×2 base, two levels: 36 base blocks of 2×8 stacked vertically.
	s := bilinear.ToRecursive(m, 3, 2, 2, 2)
	if s.Rows != 72 || s.Cols != 8 {
		t.Fatalf("stacked shape %dx%d, want 72x8", s.Rows, s.Cols)
	}
	back := matrix.New(18, 32)
	bilinear.FromRecursive(s, back, 3, 2, 2, 2)
	if !matrix.Equal(back, m) {
		t.Fatal("rectangular layout round trip failed")
	}
	// Spot-check block placement: base block (0,0) is m[0:2,0:8].
	if matrix.MaxAbsDiff(s.View(0, 0, 2, 8), m.View(0, 0, 2, 8)) != 0 {
		t.Fatal("first base block misplaced")
	}
}

// TestLayoutPadsInPass holds the padding-aware layout to the separate
// passes it replaces, bit for bit: stacking a ragged matrix into dirty
// scratch equals zero-padding it with PadInto and stacking the padded
// copy, and unstacking into the ragged shape equals unstacking the
// whole padded matrix and cropping it with CropInto. The unstacking
// destination is a view whose row stride leaves one spare column, so a
// write past its columns would show there.
func TestLayoutPadsInPass(t *testing.T) {
	ar := pool.NewArena()
	for _, sh := range layoutShapes {
		m := matrix.New(sh[0], sh[1])
		m.FillUniform(matrix.Rand(uint64(sh[0]+sh[1])), -1, 1)
		for _, part := range [][2]int{{2, 2}, {3, 2}} {
			p, q := part[0], part[1]
			for l := 0; l <= 3; l++ {
				pm, pk, _ := matrix.PadShape(m.Rows, m.Cols, 1, p, q, 1, l)
				bm, bk := pm, pk
				for i := 0; i < l; i++ {
					bm, bk = bm/p, bk/q
				}
				rows := pm * pk / bk
				for _, w := range []int{1, 2} {
					name := fmt.Sprintf("%dx%d %dx%d L=%d w=%d", m.Rows, m.Cols, p, q, l, w)

					padded := matrix.New(pm, pk)
					matrix.PadInto(padded, m)
					want := matrix.New(rows, bk)
					bilinear.ToRecursiveInto(want, padded, p, q, l, w, ar)
					got := matrix.New(rows, bk)
					got.Fill(math.NaN())
					bilinear.ToRecursiveInto(got, m, p, q, l, w, ar)
					if !matrix.Equal(got, want) {
						t.Fatalf("%s: stacking in one pass differs from PadInto then stacking", name)
					}

					s := matrix.New(rows, bk)
					s.FillUniform(matrix.Rand(uint64(rows)), -1, 1)
					full := matrix.New(pm, pk)
					bilinear.FromRecursiveInto(full, s, p, q, l, w, ar)
					cropped := matrix.New(m.Rows, m.Cols)
					matrix.CropInto(cropped, full)
					outer := matrix.New(m.Rows+1, m.Cols+1)
					outer.Fill(7)
					dst := outer.View(0, 0, m.Rows, m.Cols)
					bilinear.FromRecursiveInto(dst, s, p, q, l, w, ar)
					if !matrix.Equal(dst, cropped) {
						t.Fatalf("%s: unstacking in one pass differs from unstacking then CropInto", name)
					}
					if matrix.MaxAbsDiff(outer.View(0, m.Cols, m.Rows+1, 1), sevens(m.Rows+1, 1)) != 0 ||
						matrix.MaxAbsDiff(outer.View(m.Rows, 0, 1, m.Cols), sevens(1, m.Cols)) != 0 {
						t.Fatalf("%s: unstacking wrote outside the destination", name)
					}
				}
			}
		}
	}
}

func sevens(r, c int) *matrix.Matrix {
	m := matrix.New(r, c)
	m.Fill(7)
	return m
}

// TestLayoutShapePanics pins the shapes the layout refuses: a source
// larger than the padded operand the stacked matrix lays out, a
// destination larger than it, and a stacked row count that is not a
// multiple of (m0·k0)^L.
func TestLayoutShapePanics(t *testing.T) {
	ar := pool.NewArena()
	st := matrix.New(32, 2) // 2×2 partition at L=2: an 8×8 padded operand
	for name, fn := range map[string]func(){
		"oversize source rows":        func() { bilinear.ToRecursiveInto(st, matrix.New(9, 8), 2, 2, 2, 1, ar) },
		"oversize source cols":        func() { bilinear.ToRecursiveInto(st, matrix.New(8, 9), 2, 2, 2, 1, ar) },
		"oversize destination":        func() { bilinear.FromRecursiveInto(matrix.New(8, 9), st, 2, 2, 2, 1, ar) },
		"stacking ragged row count":   func() { bilinear.ToRecursiveInto(matrix.New(33, 2), matrix.New(8, 8), 2, 2, 2, 1, ar) },
		"unstacking ragged row count": func() { bilinear.FromRecursiveInto(matrix.New(8, 8), matrix.New(33, 2), 2, 2, 2, 1, ar) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// BenchmarkLayout measures the stacking passes against the copy
// ceiling: ToRecursiveInto and FromRecursiveInto at one and two workers
// on the operands of the library's benchmark workloads, a 1023² matrix
// stacked for L=4 (padded to 1024²) and a 2048² one for L=2, both with
// ⟨2,2,2⟩ partitions. GB/s counts one read of the caller's matrix and
// one write of the padded one.
func BenchmarkLayout(b *testing.B) {
	ar := pool.NewArena()
	for _, tc := range []struct{ n, l int }{{1023, 4}, {2048, 2}} {
		m := matrix.New(tc.n, tc.n)
		m.FillUniform(matrix.Rand(1), -1, 1)
		s := bilinear.ToRecursive(m, 2, 2, tc.l, 1)
		bytes := float64(8 * (tc.n*tc.n + s.Rows*s.Cols))
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("to/n=%d/L=%d/w=%d", tc.n, tc.l, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bilinear.ToRecursiveInto(s, m, 2, 2, tc.l, w, ar)
				}
				b.ReportMetric(bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
			b.Run(fmt.Sprintf("from/n=%d/L=%d/w=%d", tc.n, tc.l, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bilinear.FromRecursiveInto(m, s, 2, 2, tc.l, w, ar)
				}
				b.ReportMetric(bytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
			})
		}
	}
}
