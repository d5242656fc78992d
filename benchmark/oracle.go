package main

import (
	"bytes"
	"fmt"
	"math"
)

// truth is the verified answer of one statement.
type truth struct {
	nhits  uint64
	coords []uint64 // ids and hist statements only
}

// oracle answers a statement by a plain loop over the generated
// float32 columns: the harness made the data, so it needs nothing from
// the system to know the answer. Values are widened to float64 before
// comparing, as the engine's element accessor does.
func oracle(cols map[string][]float32, s stmt) truth {
	type bound struct {
		v []float32
		c cond
	}
	bs := make([]bound, len(s.conds))
	for i, c := range s.conds {
		bs[i] = bound{cols[c.col], c}
	}
	keep := s.proj != projCount
	var t truth
	n := len(bs[0].v)
	for i := 0; i < n; i++ {
		hit := true
		for _, b := range bs {
			if !b.c.contains(float64(b.v[i])) {
				hit = false
				break
			}
		}
		if hit {
			t.nhits++
			if keep {
				t.coords = append(t.coords, uint64(i))
			}
		}
	}
	return t
}

// oracleAll answers every statement, splitting the pool over two
// goroutines (the sizing is a 2-core machine).
func oracleAll(cols map[string][]float32, pool []stmt) []truth {
	out := make([]truth, len(pool))
	done := make(chan struct{}, 2)
	for g := 0; g < 2; g++ {
		go func(g int) {
			for i := g; i < len(pool); i += 2 {
				out[i] = oracle(cols, pool[i])
			}
			done <- struct{}{}
		}(g)
	}
	<-done
	<-done
	return out
}

// checkFull is the warm-up gate: the hit count for count, the
// byte-identical encoded selection for ids, and brute-force bins for
// hist.
func checkFull(cols map[string][]float32, s stmt, t truth, r *reply) error {
	if r.nhits != t.nhits {
		return fmt.Errorf("%q: %d hits, oracle %d", s.text, r.nhits, t.nhits)
	}
	switch s.proj {
	case projIDs:
		if !bytes.Equal(encodeSelection(r.coords, r.dims), encodeSelection(t.coords, []uint64{uint64(len(cols[s.conds[0].col]))})) {
			return fmt.Errorf("%q: encoded selection differs from oracle", s.text)
		}
	case projHist:
		return checkHist(cols[s.histCol], t, r.hist, s.text)
	}
	return nil
}

// checkHist recounts the hit values into the reply's own bin grid. The
// grid itself (power-of-two width, aligned start) depends on how hits
// were split over members, so only counts on it are comparable.
func checkHist(col []float32, t truth, h *histReply, text string) error {
	if h == nil {
		if t.nhits == 0 {
			return nil
		}
		return fmt.Errorf("%q: no histogram in reply", text)
	}
	if h.total != t.nhits {
		return fmt.Errorf("%q: histogram holds %d values, oracle %d", text, h.total, t.nhits)
	}
	want := make([]uint64, len(h.counts))
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, c := range t.coords {
		v := float64(col[c])
		mn, mx = math.Min(mn, v), math.Max(mx, v)
		b := int(math.Floor((v - h.start) / h.width))
		if b < 0 || b >= len(want) {
			return fmt.Errorf("%q: value %v outside histogram grid", text, v)
		}
		want[b]++
	}
	if t.nhits > 0 && (mn != h.min || mx != h.max) {
		return fmt.Errorf("%q: histogram extrema [%v, %v], oracle [%v, %v]", text, h.min, h.max, mn, mx)
	}
	for i := range want {
		if want[i] != h.counts[i] {
			return fmt.Errorf("%q: histogram bin %d holds %d, oracle %d", text, i, h.counts[i], want[i])
		}
	}
	return nil
}
