package abmm_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"abmm"
)

// goldenProductHashes holds the FNV-64a hash of the product bits of
// every catalog algorithm on the fixed operands of
// TestCatalogProductBitsPinned, keyed "name/L<levels>/w<workers>".
// The plan, the trace replay and dist's one-process check all run the
// same engine, so comparing them with one another cannot notice a
// change in rounding; these committed values can. A change that moves
// a product's bits on purpose replaces the affected values here and
// says which cells moved and why.
var goldenProductHashes = map[string]uint64{
	"alt-winograd/L1/w1": 0xa28773e6d83fa59b,
	"alt-winograd/L1/w2": 0xa28773e6d83fa59b,
	"alt-winograd/L2/w1": 0x58658da775c8dc9b,
	"alt-winograd/L2/w2": 0x58658da775c8dc9b,
	"alt-winograd/L3/w1": 0x6fa24b3bbdd3ec72,
	"alt-winograd/L3/w2": 0x6fa24b3bbdd3ec72,
	"classical/L1/w1":    0x6d0d214b7ec434b3,
	"classical/L1/w2":    0x6d0d214b7ec434b3,
	"classical/L2/w1":    0x727be3f37d98958e,
	"classical/L2/w2":    0x727be3f37d98958e,
	"classical/L3/w1":    0xd0434317d520d7bc,
	"classical/L3/w2":    0xd0434317d520d7bc,
	"hk223/L1/w1":        0xebcdcc4c07450008,
	"hk223/L1/w2":        0xebcdcc4c07450008,
	"hk223/L2/w1":        0x58fca391e6b0860b,
	"hk223/L2/w2":        0x58fca391e6b0860b,
	"hk223/L3/w1":        0x3cc9eaa6ae28b300,
	"hk223/L3/w2":        0x3cc9eaa6ae28b300,
	"laderman/L1/w1":     0xc021a0cadd95ff04,
	"laderman/L1/w2":     0xc021a0cadd95ff04,
	"laderman/L2/w1":     0x0ba54688629c66cc,
	"laderman/L2/w2":     0x0ba54688629c66cc,
	"laderman/L3/w1":     0x176788cbd68136bf,
	"laderman/L3/w2":     0x176788cbd68136bf,
	"laderman-alt/L1/w1": 0x73af067fb99d1cab,
	"laderman-alt/L1/w2": 0x73af067fb99d1cab,
	"laderman-alt/L2/w1": 0x2033eb064f341a71,
	"laderman-alt/L2/w2": 0x2033eb064f341a71,
	"laderman-alt/L3/w1": 0xec0826c8bc8b47fc,
	"laderman-alt/L3/w2": 0xec0826c8bc8b47fc,
	"ours/L1/w1":         0xfdf89cf3e35d9a59,
	"ours/L1/w2":         0xfdf89cf3e35d9a59,
	"ours/L2/w1":         0xc6ca03e9c6591aae,
	"ours/L2/w2":         0xc6ca03e9c6591aae,
	"ours/L3/w1":         0x30a57938b79d0cdd,
	"ours/L3/w2":         0x30a57938b79d0cdd,
	"rect323/L1/w1":      0x30b4bf0483704845,
	"rect323/L1/w2":      0x30b4bf0483704845,
	"rect323/L2/w1":      0x543938010d43024f,
	"rect323/L2/w2":      0x543938010d43024f,
	"rect323/L3/w1":      0x2cc0c46fc2b8863d,
	"rect323/L3/w2":      0x2cc0c46fc2b8863d,
	"strassen/L1/w1":     0x8b974bd527f3f719,
	"strassen/L1/w2":     0x8b974bd527f3f719,
	"strassen/L2/w1":     0x8e609a617bd66d16,
	"strassen/L2/w2":     0x8e609a617bd66d16,
	"strassen/L3/w1":     0xb74a810e273f8c4f,
	"strassen/L3/w2":     0xb74a810e273f8c4f,
	"winograd/L1/w1":     0xd7df82e0918b4fbb,
	"winograd/L1/w2":     0xd7df82e0918b4fbb,
	"winograd/L2/w1":     0xb5ecbdcdc6a1d39d,
	"winograd/L2/w2":     0xb5ecbdcdc6a1d39d,
	"winograd/L3/w1":     0xc6f120fbc0179578,
	"winograd/L3/w2":     0xc6f120fbc0179578,
}

// TestCatalogProductBitsPinned multiplies fixed seeded 216×216
// operands (216 = 2³·3³ divides every catalog base case at three
// levels, so no plan pads) with every catalog algorithm at L ∈ {1, 2, 3}
// and Workers ∈ {1, 2}, and compares a hash of each product's bits with
// its committed value.
func TestCatalogProductBitsPinned(t *testing.T) {
	const n = 216
	a, b := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	abmm.FillPair(a, b, abmm.DistSymmetric, abmm.Rand(216))
	for _, name := range abmm.Names() {
		alg, err := abmm.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for levels := 1; levels <= 3; levels++ {
			for _, workers := range []int{1, 2} {
				key := fmt.Sprintf("%s/L%d/w%d", name, levels, workers)
				got := productHash(abmm.Multiply(alg, a, b, abmm.Options{Levels: levels, Workers: workers}))
				if want, ok := goldenProductHashes[key]; !ok || got != want {
					t.Errorf("%s: product hash %#016x, want %#016x", key, got, want)
				}
			}
		}
	}
}

// productHash is the FNV-64a hash of c's elements' bits in row-major
// order, little-endian.
func productHash(c *abmm.Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < c.Rows; i++ {
		for _, v := range c.Row(i) {
			bits := math.Float64bits(v)
			for k := range buf {
				buf[k] = byte(bits >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
