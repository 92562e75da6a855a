package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPackedKeyOrderIsKeyLess checks the heap's comparison against the order
// it packs: before on two packed entries is Key.Less on their keys, at every
// corner of the three fields.
func TestPackedKeyOrderIsKeyLess(t *testing.T) {
	ats := []Time{0, 1, 2, 1 << 40, 1<<62 - 1, 1 << 62}
	srcs := []int32{DriverSrc, 0, 1, 63, maxSrc - 1, maxSrc}
	seqs := []uint64{0, 1, 2, 1 << 32, maxSeq - 1, maxSeq}
	var evs []*event
	for _, at := range ats {
		for _, src := range srcs {
			for _, seq := range seqs {
				evs = append(evs, &event{at: at, src: src, seq: seq})
			}
		}
	}
	for _, a := range evs {
		for _, b := range evs {
			ea, eb := pack(a), pack(b)
			got := before(ea.at, ea.tie, eb.at, eb.tie) == 1
			if want := a.key().Less(b.key()); got != want {
				t.Fatalf("before(%+v, %+v) = %v, Key.Less = %v", a.key(), b.key(), got, want)
			}
		}
	}
}

// orderOwners are the sources of the dispatch-order property test: a few
// ordinary owners plus the largest one the packed key can hold.
var orderOwners = []int32{0, 1, 2, 3, 4, 5, 6, 7, maxSrc}

// orderRec is one scheduled event as its scheduler saw it.
type orderRec struct {
	key  Key
	live bool // not cancelled
}

// orderTimer is a handle an owner kept, with the index of the record it
// cancels.
type orderTimer struct {
	tm  Timer
	rec int
}

// orderOwner is one source's private state: only its own handlers touch it,
// so the multi-shard runs share nothing between window goroutines.
type orderOwner struct {
	rng    *rand.Rand
	budget int // events it may still schedule
	recs   []orderRec
	timers []orderTimer
}

// runOrderMix drives a seeded random mix of local timers, payload deliveries
// to other owners, driver injections and cancellations with heavy same-tick
// ties, on an ensemble whose sequence counters start near the top of the
// packed range. It returns the keys of every live scheduled event and, per
// shard, the keys in the order that shard dispatched them.
func runOrderMix(t *testing.T, seed int64, shards int) (live []Key, dispatched [][]Key) {
	t.Helper()
	homes := make([]int32, maxSrc+1)
	for i, o := range orderOwners {
		homes[o] = int32(i % shards)
	}
	s := NewSharded(seed, shards, homes, testHorizon)
	defer s.Close()
	for i := 0; i < shards; i++ {
		s.Shard(i).seq = maxSeq - 1_000_000
	}
	s.driverSeq = maxSeq - 1_000

	owners := map[int32]*orderOwner{}
	for i, o := range orderOwners {
		owners[o] = &orderOwner{rng: rand.New(rand.NewSource(seed*100 + int64(i))), budget: 400}
	}
	dispatched = make([][]Key, shards)

	var handle func(o int32)
	handle = func(o int32) {
		shard := s.HomeOf(o)
		k := s.Shard(shard)
		dispatched[shard] = append(dispatched[shard], k.CurrentKey())
		st := owners[o]
		for n := 1 + st.rng.Intn(3); n > 0 && st.budget > 0; n-- {
			switch st.rng.Intn(3) {
			case 0: // a local timer, 1–3 ticks out (at zero delay a lower source
				// than the running event's would sort before it, and no static
				// order would describe the run)
				st.budget--
				at := k.Now() + 1 + Time(st.rng.Intn(3))
				st.recs = append(st.recs, orderRec{Key{at, k.cur, k.seq}, true})
				tm := k.At(at, func() { handle(o) })
				st.timers = append(st.timers, orderTimer{tm, len(st.recs) - 1})
			case 1: // a delivery to any owner, at the lookahead horizon or just past it
				st.budget--
				dst := orderOwners[st.rng.Intn(len(orderOwners))]
				at := k.Now() + testHorizon + Time(st.rng.Intn(2))
				st.recs = append(st.recs, orderRec{Key{at, k.cur, k.seq}, true})
				k.AtMsgTo(at, dst, dst)
			case 2: // cancel one of its own timers, fired or not
				if len(st.timers) > 0 {
					h := st.timers[st.rng.Intn(len(st.timers))]
					if h.tm.Stop() {
						st.recs[h.rec].live = false
					}
				}
			}
		}
	}
	s.SetSink(func(v any) { handle(v.(int32)) })

	drng := rand.New(rand.NewSource(seed))
	var driver []orderRec
	inject := func(n int, from Time) {
		for ; n > 0; n-- {
			o := orderOwners[drng.Intn(len(orderOwners))]
			at := from + Time(drng.Intn(4))
			driver = append(driver, orderRec{Key{at, DriverSrc, s.driverSeq}, true})
			s.AtOn(at, o, func() { handle(o) })
		}
	}
	inject(60, 0)
	s.RunUntil(20, 0)
	inject(60, s.Now()+1) // mid-run, among the pending protocol events; tick Now itself has already run
	if res := s.Run(0); res != RunQuiescent {
		t.Fatalf("run ended %v, want quiescent", res)
	}

	for _, r := range driver {
		live = append(live, r.key)
	}
	for _, o := range orderOwners {
		for _, r := range owners[o].recs {
			if r.live {
				live = append(live, r.key)
			}
		}
	}
	return live, dispatched
}

// TestDispatchOrderIsKeyOrder is the heap's contract: whatever the layout of
// its entries, the events that run are exactly the scheduled events that were
// not cancelled, and each shard runs its share in Key order — so at one
// shard the dispatched sequence is the sort by Key of the live events, and
// at two or four the merge of the shards' sequences is.
func TestDispatchOrderIsKeyOrder(t *testing.T) {
	keyLess := func(ks []Key) func(i, j int) bool {
		return func(i, j int) bool { return ks[i].Less(ks[j]) }
	}
	for _, shards := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			live, dispatched := runOrderMix(t, seed, shards)
			sort.Slice(live, keyLess(live))
			var all []Key
			for shard, ks := range dispatched {
				if !sort.SliceIsSorted(ks, keyLess(ks)) {
					t.Fatalf("shards=%d seed=%d: shard %d dispatched out of Key order", shards, seed, shard)
				}
				all = append(all, ks...)
			}
			if shards > 1 {
				sort.Slice(all, keyLess(all))
			}
			if len(all) != len(live) {
				t.Fatalf("shards=%d seed=%d: dispatched %d events, %d live events scheduled", shards, seed, len(all), len(live))
			}
			if len(all) < 1000 {
				t.Fatalf("shards=%d seed=%d: only %d events, the mix died out", shards, seed, len(all))
			}
			tied := 0 // events whose tick also holds an event from another source
			for i, j := 0, 0; i < len(all); i = j {
				mixed := false
				for j = i; j < len(all) && all[j].At == all[i].At; j++ {
					mixed = mixed || all[j].Src != all[i].Src
				}
				if mixed {
					tied += j - i
				}
			}
			for i := range all {
				if all[i] != live[i] {
					t.Fatalf("shards=%d seed=%d: dispatch %d was %+v, Key order says %+v", shards, seed, i, all[i], live[i])
				}
			}
			if tied < len(all)*9/10 {
				t.Fatalf("shards=%d seed=%d: only %d of %d events share their tick with another source", shards, seed, tied, len(all))
			}
		}
	}
}

// TestUnpackableKeyPanics pins the packed key's limits: a sequence number or
// a source beyond what the tie word holds is refused at scheduling time, not
// wrapped onto another event's key.
func TestUnpackableKeyPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: scheduling did not panic", name)
			}
		}()
		fn()
	}
	k := NewKernel(1)
	k.seq = maxSeq
	k.After(1, func() {}) // the last sequence number still fits
	mustPanic("seq past maxSeq", func() { k.After(1, func() {}) })
	if k.Pending() != 1 {
		t.Errorf("%d events pending after the refused one, want 1", k.Pending())
	}

	// A handler owned by source maxSrc+1 schedules with that source.
	s := NewSharded(1, 1, make([]int32, maxSrc+2), 1)
	defer s.Close()
	ran := false
	s.AtOn(0, maxSrc+1, func() {
		ran = true
		mustPanic("source past maxSrc", func() { s.Shard(0).After(1, func() {}) })
	})
	s.Run(0)
	if !ran {
		t.Error("handler never ran")
	}
}
