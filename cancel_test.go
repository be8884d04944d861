package abmm_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"abmm"
)

// TestMultiplyCancelReturnsEarly pins the cooperative-cancellation
// latency contract: canceling an in-flight n=2048, two-level multiply
// must return well before the uncanceled wall time. The recursion
// checks the cancel token at node boundaries, so the worst case after
// a cancel is roughly one base-case block plus O(n²) staging — a few
// percent of the full multiply; the test allows 25%.
func TestMultiplyCancelReturnsEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a 2048x2048 multiply")
	}
	const n = 2048
	alg, err := abmm.Lookup("ours")
	if err != nil {
		t.Fatal(err)
	}
	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 2})
	a, b, c := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	abmm.FillPair(a, b, abmm.DistSymmetric, abmm.Rand(7))

	// Uncanceled baseline on a warm plan.
	if err := mu.MultiplyIntoCtx(context.Background(), c, a, b); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := mu.MultiplyIntoCtx(context.Background(), c, a, b); err != nil {
		t.Fatal(err)
	}
	base := time.Since(start)

	// Cancel shortly after the recursion starts.
	ctx, cancel := context.WithTimeout(context.Background(), base/20)
	defer cancel()
	start = time.Now()
	err = mu.MultiplyIntoCtx(ctx, c, a, b)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled multiply returned %v, want DeadlineExceeded", err)
	}
	if limit := base / 4; elapsed >= limit {
		t.Fatalf("canceled multiply took %v, want < %v (uncanceled %v)", elapsed, limit, base)
	}
	t.Logf("uncanceled %v, canceled returned after %v", base, elapsed)
}

// TestMultiplierConcurrentCancel races canceled and uncanceled
// multiplications through one shared Multiplier (the serving layer's
// usage pattern); the name keeps it inside the `make race` run set.
func TestMultiplierConcurrentCancel(t *testing.T) {
	const n = 192
	alg, err := abmm.Lookup("ours")
	if err != nil {
		t.Fatal(err)
	}
	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 1})
	a, b := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	abmm.FillPair(a, b, abmm.DistSymmetric, abmm.Rand(11))
	want := abmm.MultiplyClassical(a, b, 0)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		canceled := i%2 == 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := abmm.NewMatrix(n, n)
			ctx := context.Background()
			if canceled {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				cancel() // already canceled: returns before executing
			}
			err := mu.MultiplyIntoCtx(ctx, c, a, b)
			if canceled {
				if !errors.Is(err, context.Canceled) {
					errs <- err
				}
				return // the canceled result is garbage by contract
			}
			if err != nil {
				errs <- err
				return
			}
			for j := range want.Data {
				if d := c.Data[j] - want.Data[j]; d > 1e-9 || d < -1e-9 {
					errs <- errors.New("uncanceled result corrupted")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMultiplyIntoCtxBackgroundMatchesMultiplyInto checks that a ctx
// without a deadline takes the nil-token path and produces identical
// results to MultiplyInto.
func TestMultiplyIntoCtxBackgroundMatchesMultiplyInto(t *testing.T) {
	const n = 96
	alg, err := abmm.Lookup("strassen")
	if err != nil {
		t.Fatal(err)
	}
	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 1})
	a, b := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	abmm.FillPair(a, b, abmm.DistSymmetric, abmm.Rand(3))
	c1, c2 := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	mu.MultiplyInto(c1, a, b)
	if err := mu.MultiplyIntoCtx(context.Background(), c2, a, b); err != nil {
		t.Fatal(err)
	}
	for i := range c1.Data {
		// Same plan, same schedule: the two paths must agree bit-exactly.
		//abmm:allow float-discipline
		if c1.Data[i] != c2.Data[i] {
			t.Fatalf("element %d differs: %v vs %v", i, c1.Data[i], c2.Data[i])
		}
	}
}
