package main

import (
	"net/http/httptest"
	"testing"
)

// TestAnalyzeSelfTimes checks the self-time arithmetic on a synthetic
// request: client → front → monitor → {pre snapshot → round trip →
// {rtt, cloud}, forward → round trip → cloud}, plus an async post
// snapshot that runs after the response and must not be subtracted from
// anything.
func TestAnalyzeSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, req: 1, layer: layerClient, start: 0, end: 1000},
		{id: 2, parent: 1, req: 1, layer: layerFront, start: 10, end: 990},
		{id: 3, parent: 2, req: 1, layer: layerMonitor, start: 20, end: 980},
		{id: 4, parent: 3, req: 1, layer: layerSnapshot, start: 30, end: 430},
		{id: 5, parent: 4, req: 1, layer: layerRoundTrip, start: 40, end: 400},
		{id: 6, parent: 5, req: 1, layer: layerRTT, start: 45, end: 245},
		{id: 7, parent: 5, req: 1, layer: layerCloud, start: 250, end: 390},
		{id: 8, parent: 3, req: 1, layer: layerForward, start: 500, end: 900},
		{id: 9, parent: 8, req: 1, layer: layerRoundTrip, start: 510, end: 890},
		{id: 10, parent: 9, req: 1, layer: layerCloud, start: 520, end: 880},
		// Off the response path: the async post check and its cloud read,
		// which end long after the client's reply.
		{id: 11, layer: layerSnapshot, flags: flagPost | flagOffPath, start: 950, end: 1500},
		{id: 12, parent: 11, layer: layerRoundTrip, start: 960, end: 1400},
		{id: 13, parent: 12, layer: layerCloud, start: 970, end: 1390},
	}
	// Spans are recorded in completion order; recorded sorts them by id.
	tr := newTracer()
	for _, s := range append(append([]span(nil), spans[6:]...), spans[:6]...) {
		tr.add(s)
	}
	st := analyze(tr.recorded())

	want := map[layer]int64{
		layerClient:    1000 - 980,
		layerFront:     980 - 960,
		layerMonitor:   960 - 400 - 400,
		layerSnapshot:  400 - 360,
		layerForward:   400 - 380,
		layerRoundTrip: (360 - 200 - 140) + (380 - 360),
		layerRTT:       200,
		layerCloud:     140 + 360,
	}
	var sum int64
	for l := range numLayers {
		if st.self[l] != want[l] {
			t.Errorf("%s self = %d, want %d", l, st.self[l], want[l])
		}
		sum += st.self[l]
	}
	if sum != st.total[layerClient] {
		t.Errorf("self times sum to %d, client latency is %d", sum, st.total[layerClient])
	}
	if st.offPath != 3 || st.orphans != 0 {
		t.Errorf("offPath = %d, orphans = %d; want 3 and 0", st.offPath, st.orphans)
	}
	if st.count[layerSnapshot] != 2 || st.postCount != 1 || st.postTotal != 550 {
		t.Errorf("snapshot count %d, post count %d, post total %d; want 2, 1, 550", st.count[layerSnapshot], st.postCount, st.postTotal)
	}
	if st.count[layerCloud] != 3 || st.total[layerCloud] != 140+360+420 {
		t.Errorf("cloud count %d total %d; want every cloud span counted", st.count[layerCloud], st.total[layerCloud])
	}

	// A span whose parent was never recorded breaks the reconciliation.
	st = analyze(append(spans, span{id: 14, parent: 99, req: 1, layer: layerRoundTrip, start: 1, end: 2}))
	if st.orphans != 1 {
		t.Errorf("orphans = %d, want 1", st.orphans)
	}
}

func TestRequestKeyMatchesSnapshotParams(t *testing.T) {
	r := httptest.NewRequest("DELETE", "http://monitor.internal/projects/p1/volumes/v9", nil)
	r.Header.Set("X-Auth-Token", "tok")
	if got, want := requestKey(r), openKey("tok", "p1", "v9"); got != want {
		t.Errorf("item key %q, want %q", got, want)
	}
	r = httptest.NewRequest("POST", "http://monitor.internal/projects/p1/volumes", nil)
	if got, want := requestKey(r), openKey("", "p1", ""); got != want {
		t.Errorf("collection key %q, want %q", got, want)
	}
}

func TestOpenSpansFindOldest(t *testing.T) {
	tr := newTracer()
	tr.openAdd("k", spanRef{req: 1, id: 10})
	tr.openAdd("k", spanRef{req: 2, id: 20})
	if r, ok := tr.openFind("k"); !ok || r.id != 10 {
		t.Fatalf("openFind = %v, %v; want the oldest span", r, ok)
	}
	tr.openRemove("k", 10)
	if r, ok := tr.openFind("k"); !ok || r.id != 20 {
		t.Fatalf("after removal openFind = %v, %v", r, ok)
	}
	tr.openRemove("k", 20)
	if _, ok := tr.openFind("k"); ok || len(tr.open) != 0 {
		t.Fatal("open index not empty after every span closed")
	}
}
