package main

import (
	"testing"
	"time"
)

// sampledHeap is a stopped-sampler stand-in: one cycle per 100 ms over a
// 10 s phase, each reading base MiB except the cycles listed in spikes.
func sampledHeap(base uint64, spikes map[int]uint64) *heapSampler {
	h := &heapSampler{start: time.Now().Add(-10 * time.Second)}
	for i := 0; i < 100; i++ {
		live := base
		if v, ok := spikes[i]; ok {
			live = v
		}
		h.at = append(h.at, time.Duration(i)*100*time.Millisecond)
		h.live = append(h.live, live<<20)
	}
	return h
}

func TestPeakHeapDropsLoneCycle(t *testing.T) {
	highest, peak := sampledHeap(2, map[int]uint64{37: 10}).Stop(100)
	if highest != 10 || peak != 2 {
		t.Errorf("lone stretched cycle: highest %v, peak %v; want 10, 2", highest, peak)
	}
}

func TestPeakHeapSeesRiseInEveryUnit(t *testing.T) {
	// Ten units of one second; each rises to 6 MiB once, at its middle.
	spikes := map[int]uint64{}
	for u := 0; u < 10; u++ {
		spikes[u*10+5] = 6
	}
	if _, peak := sampledHeap(2, spikes).Stop(10); peak != 6 {
		t.Errorf("rise in every unit: peak %v, want 6", peak)
	}
}

func TestPeakHeapSingleUnitIsHighestCycle(t *testing.T) {
	highest, peak := sampledHeap(2, map[int]uint64{80: 9}).Stop(1)
	if highest != 9 || peak != 9 {
		t.Errorf("one unit: highest %v, peak %v; want 9, 9", highest, peak)
	}
}
