package machine

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/lang"
	"repro/internal/recovery"
)

// publishedLen is the length of seed's published prefix.
func publishedLen(seed int64) int { return len(*streamFor(seed).buf.Load()) }

// TestCachedRandMatchesSeededSource walks two cursors over one cached stream,
// interleaved and out of step, across every boundary the cache has — the
// first fill (16), the kept-source threshold (64) and the fork at
// maxCachedPrefix — and requires each to draw exactly what a freshly seeded
// math/rand source draws.
func TestCachedRandMatchesSeededSource(t *testing.T) {
	const seed = 0x5eed_cafe_0001 // used by no other test: the cache is process-wide
	const draws = maxCachedPrefix + 200
	a, refA := cachedRand(seed), rand.New(rand.NewSource(seed))
	b, refB := cachedRand(seed), rand.New(rand.NewSource(seed))
	draw := func(name string, i int, got, ref *rand.Rand) {
		t.Helper()
		if i%3 == 0 {
			if g, w := got.Intn(1000), ref.Intn(1000); g != w {
				t.Fatalf("cursor %s draw %d: Intn = %d, want %d", name, i, g, w)
			}
			return
		}
		if g, w := got.Int63(), ref.Int63(); g != w {
			t.Fatalf("cursor %s draw %d: Int63 = %d, want %d", name, i, g, w)
		}
	}
	for i := 0; i < draws; i++ {
		draw("a", i, a, refA) // a leads and extends the stream
		if i%2 == 1 {
			draw("b", i/2, b, refB) // b follows at half speed through the published prefix
		}
		if i == 0 && publishedLen(seed) < 16 {
			t.Fatalf("first draw published %d values, want at least 16", publishedLen(seed))
		}
	}
	for i := draws / 2; i < draws; i++ {
		draw("b", i, b, refB) // b now crosses the bound and forks too
	}
	if got := publishedLen(seed); got != maxCachedPrefix {
		t.Errorf("published prefix is %d values after %d draws, want the bound %d", got, draws, maxCachedPrefix)
	}
}

// TestFreshMachineSeedsEachStreamLogarithmically runs fib:13 on 64 processors
// whose seeds no machine has used and reads the cache afterwards: every
// published prefix is 16 doubled some number of times, so a processor that
// drew n values extended its stream (and, below keepSrcLen, re-seeded its
// source) about log2(n/16) times — not once per draw.
func TestFreshMachineSeedsEachStreamLogarithmically(t *testing.T) {
	const seed = 0x5eed_cafe_0002
	prog, args := lang.Fib(), []expr.Value{expr.VInt(13)}
	rep := runMachine(t, Config{Topo: mustTopo(t, "mesh", 64), Scheme: recovery.Rollback(), Seed: seed}, prog, "fib", args, nil)
	expectAnswer(t, rep, prog, "fib", args)
	drew, extensions := 0, 0
	for idx := 0; idx < 64; idx++ {
		n := publishedLen(mixSeed(seed, idx))
		if n == 0 {
			continue
		}
		drew++
		if n%16 != 0 || bits.OnesCount(uint(n/16)) != 1 {
			t.Errorf("processor %d: published prefix of %d values is not 16·2^k: the stream grew by single draws", idx, n)
			continue
		}
		extensions += bits.Len(uint(n / 16))
	}
	if drew == 0 {
		t.Fatal("no processor drew from its stream")
	}
	if extensions > 4*drew {
		t.Errorf("%d stream extensions for %d drawing processors on fib:13, want at most 4 each", extensions, drew)
	}
}
