package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"nodesampling/internal/rng"
)

// TestGammaMatchesScanOracle drives Γ with random add / replace / contains
// sequences, below and above gammaScanThreshold, and checks every membership
// answer against a scan of a plain slice. Ids come from a small range and
// the queried id repeats most of the time, so the remembered answer is hit,
// installed and evicted constantly.
func TestGammaMatchesScanOracle(t *testing.T) {
	for _, c := range []int{25, 200} {
		g := newGamma(c)
		var oracle []uint64
		in := func(id uint64) bool {
			for _, v := range oracle {
				if v == id {
					return true
				}
			}
			return false
		}
		r := rng.New(uint64(c))
		id := uint64(0)
		for step := 0; step < 200000; step++ {
			if r.Float64() < 0.4 {
				id = r.Uint64n(uint64(3 * c))
			}
			// The remembered id is asked about first, so a stale answer shows.
			asks := []uint64{g.last, id, r.Uint64n(uint64(3 * c))}
			switch op := r.Intn(4); {
			case op == 0 && !in(id) && len(oracle) < c:
				g.add(id)
				oracle = append(oracle, id)
			case op == 1 && !in(id) && len(oracle) > 0:
				i := r.Intn(len(oracle))
				if r.Float64() < 0.5 {
					// Evict the id the previous step asked about last, when present.
					for j, v := range g.items {
						if v == g.last {
							i = j
						}
					}
				}
				ev := g.replace(i, id)
				if ev != oracle[i] {
					t.Fatalf("c=%d step %d: replace evicted %d, oracle holds %d", c, step, ev, oracle[i])
				}
				oracle[i] = id
				asks = append(asks, ev)
			}
			for _, x := range asks {
				if got, want := g.contains(x), in(x); got != want {
					t.Fatalf("c=%d step %d: contains(%d) = %v, scan says %v", c, step, x, got, want)
				}
			}
		}
	}
}

// TestFloodEmitGolden pins the knowledge-free step bit for bit under the
// paper's targeted flood (80 % of arrivals one id, the rest uniform over
// 4 096): the sha256 of every σ′ draw, then Γ, then the sketch bytes, over
// 400 seeded 1 024-id batches with periodic halving. A flood repeats one id
// back to back, which is where a per-id shortcut would show; the checksums
// were taken before the sketch and Γ remembered their last id.
func TestFloodEmitGolden(t *testing.T) {
	for _, tc := range []struct {
		c            int
		conservative bool
		want         string
	}{
		{25, false, "94bf948fd9c49ee296f00977de9ec6ed8b3a99a1c5a7b7f2024ab058bac04f07"},
		{200, false, "14a2999b5ec1f1a1ba189ea5ea60132ef588460b4ce0f0a79dacbd39631090cb"},
		{25, true, "3a8886b30063afbdb90c52345591123e19909c5fc2033bf02ffa66653bacebd6"},
	} {
		opts := []Option{WithPeriodicHalving(4096)}
		if tc.conservative {
			opts = append(opts, WithConservativeUpdate())
		}
		kf, err := NewKnowledgeFree(tc.c, 50, 10, rng.New(7), opts...)
		if err != nil {
			t.Fatal(err)
		}
		in := rng.New(13)
		h := sha256.New()
		batch := make([]uint64, 1024)
		var out []uint64
		var buf []byte
		for b := 0; b < 400; b++ {
			for i := range batch {
				batch[i] = in.Uint64n(4096)
				if in.Float64() < 0.8 {
					batch[i] = 0 // the victim
				}
			}
			out = kf.ProcessBatchEmit(batch, out[:0])
			buf = buf[:0]
			for _, v := range out {
				buf = binary.BigEndian.AppendUint64(buf, v)
			}
			h.Write(buf)
		}
		buf = buf[:0]
		for _, v := range kf.Memory() {
			buf = binary.BigEndian.AppendUint64(buf, v)
		}
		h.Write(buf)
		state, err := kf.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(state)
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("c=%d conservative=%v: flood hashes to %s, want %s", tc.c, tc.conservative, got, tc.want)
		}
	}
}
