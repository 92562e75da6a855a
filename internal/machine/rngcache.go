package machine

import (
	"math/rand"
	"sync"
	"sync/atomic"
)

// Seeding a math/rand source is the single most expensive part of machine
// construction: rand.NewSource runs a 607-step warm-up per processor, and a
// 64-processor machine is rebuilt for every cell of a sweep. The values a
// processor actually draws are a pure function of its seed, so the warm-up
// is paid once per distinct seed per process: a seedStream owns the real
// stdlib source and an append-only prefix of its Int63 outputs, and every
// machine's processor reads through a cachedSource cursor over that prefix.
// The source is created lazily on the first draw, so processors that never
// consult their RNG (every proc in a fault-free run under non-random
// placement) never pay the warm-up at all.
//
// Determinism is by construction, not by re-implementation: the cached
// values come from rand.NewSource itself, so the k-th Int63 a processor
// observes is bit-identical to what a freshly seeded source would have
// produced, regardless of how many machines shared the stream before it.

// rngStreams caches seedStreams by seed value, process-wide.
var rngStreams sync.Map // int64 -> *seedStream

// seedStream is the shared, append-only Int63 prefix for one seed. The
// published buffer is immutable; growth copies into a fresh slice and
// republishes, so concurrent readers (machines on parallel experiment
// workers) never observe a partially written cell.
type seedStream struct {
	seed int64
	buf  atomic.Pointer[[]int64]

	mu sync.Mutex // serializes extensions
	// src is retained between extensions only once the stream has proven
	// heavy (keepSrcLen draws): recovery-active processors extend their
	// stream many times and must not re-pay the 607-step warm-up per
	// extension, while the thousands of light one-touch streams a sweep
	// creates must not each pin a ~5 KB feedback register for the life of
	// the process. Invariant when non-nil: src has produced exactly
	// len(published buf) values.
	src rand.Source
}

// keepSrcLen is the published-prefix length at which a stream keeps its
// source alive between extensions.
const keepSrcLen = 64

// maxCachedPrefix bounds the published prefix per seed. Beyond it a cursor
// forks a private source (one warm-up plus a prefix replay) and draws
// directly, so a recovery-heavy processor that consumes hundreds of
// thousands of values does not turn the process-wide cache into an
// unbounded log of its stream. The bound caps the cache at ~32 KB per
// distinct seed while still covering every light consumer.
const maxCachedPrefix = 4096

var emptyPrefix = []int64{}

func streamFor(seed int64) *seedStream {
	if v, ok := rngStreams.Load(seed); ok {
		return v.(*seedStream)
	}
	s := &seedStream{seed: seed}
	s.buf.Store(&emptyPrefix)
	v, _ := rngStreams.LoadOrStore(seed, s)
	return v.(*seedStream)
}

// extend guarantees the published prefix covers position pos and returns it.
// It fills the whole grown buffer, not just up to pos: the prefix doubles per
// call, so a stream that serves n draws is extended O(log n) times and a
// light one seeds its source once.
func (s *seedStream) extend(pos int) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := *s.buf.Load()
	if pos < len(cur) {
		return cur
	}
	src := s.src
	if src == nil {
		// Recreate the source and replay the published prefix: light
		// streams do not keep their source (see seedStream.src), and the
		// replay of a short prefix is negligible next to the warm-up
		// rand.NewSource already pays.
		src = rand.NewSource(s.seed)
		for i := 0; i < len(cur); i++ {
			src.Int63()
		}
	}
	grown := len(cur) * 2
	if grown <= pos {
		grown = pos + 16
	}
	if grown > maxCachedPrefix {
		grown = maxCachedPrefix // callers past the bound fork instead
	}
	next := make([]int64, len(cur), grown)
	copy(next, cur)
	for len(next) < grown {
		next = append(next, src.Int63())
	}
	s.buf.Store(&next)
	if len(next) >= keepSrcLen {
		s.src = src
	} else {
		s.src = nil
	}
	return next
}

// cachedSource is one consumer's cursor over a seedStream. It implements
// rand.Source (Int63 only, deliberately not Source64): every rand.Rand
// method the machine uses — Intn and below — draws exclusively through
// Int63, so the consumed sequence matches a directly seeded source exactly.
type cachedSource struct {
	s   *seedStream
	pos int
	own rand.Source // non-nil once the cursor has passed maxCachedPrefix
}

func (c *cachedSource) Int63() int64 {
	if c.own != nil {
		return c.own.Int63()
	}
	buf := *c.s.buf.Load()
	if c.pos >= len(buf) {
		if c.pos >= maxCachedPrefix {
			// Fork: re-derive this cursor's position privately. One
			// warm-up plus a prefix replay, paid once per heavy cursor;
			// every further draw is a direct source call, bit-identical
			// to the shared stream by construction.
			src := rand.NewSource(c.s.seed)
			for i := 0; i < c.pos; i++ {
				src.Int63()
			}
			c.own = src
			return c.own.Int63()
		}
		buf = c.s.extend(c.pos)
	}
	v := buf[c.pos]
	c.pos++
	return v
}

// Seed is required by rand.Source but must never run: re-seeding a shared
// stream would corrupt every other cursor. The machine never calls it.
func (c *cachedSource) Seed(int64) {
	panic("machine: cachedSource is not reseedable")
}

// cachedRand returns a *rand.Rand whose draw sequence is identical to
// rand.New(rand.NewSource(seed)) for all Int63-derived methods.
func cachedRand(seed int64) *rand.Rand {
	return rand.New(&cachedSource{s: streamFor(seed)})
}
