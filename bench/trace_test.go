package main

import (
	"math"
	"testing"
)

func TestSelfTimeNestedAndSiblings(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 1, Layer: "bench", Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Op: 1, Layer: "bgp", Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Op: 1, Layer: "bgp", Name: "a1", StartNS: 15, EndNS: 25},
		{ID: 4, Op: 1, Layer: "classify", Name: "b", StartNS: 50, EndNS: 90},
		// Another pass: containment must not cross ops.
		{ID: 5, Op: 2, Layer: "bench", Name: "root", StartNS: 20, EndNS: 30},
	}
	parentByContainment(spans)
	wantParent := map[int]int{1: 0, 2: 1, 3: 2, 4: 1, 5: 0}
	for _, s := range spans {
		if s.Parent != wantParent[s.ID] {
			t.Errorf("span %d (%s): parent %d, want %d", s.ID, s.Name, s.Parent, wantParent[s.ID])
		}
	}
	self := selfTimes(spans)
	wantSelf := map[int]int64{1: 100 - 30 - 40, 2: 30 - 10, 3: 10, 4: 40, 5: 10}
	for id, want := range wantSelf {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
	layers := selfByLayer(spans)
	for layer, want := range map[string]float64{"bench": 40e-9, "bgp": 30e-9, "classify": 40e-9} {
		if math.Abs(layers[layer]-want) > 1e-15 {
			t.Errorf("layer %s: self %g s, want %g s", layer, layers[layer], want)
		}
	}
}

// TestSelfTimeOverlappingChildren: two workers' spans that overlap
// cover their union, not their sum, and a child that overruns its
// parent covers only what lies inside it.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120},
	}
	if got := selfTimes(spans)[1]; got != 100-50-10 {
		t.Errorf("self = %d, want %d", got, 100-50-10)
	}
}

func TestStageListenerPairsBeginAndEnd(t *testing.T) {
	rec := newRecorder()
	on := rec.stageListener(3)
	on("stray/end", false) // an end without a begin is dropped
	on("scenario/build", true)
	on("scenario/topology", true)
	on("scenario/topology", false)
	on("bgp/compute-rib", true)
	on("bgp/compute-rib", false)
	on("scenario/build", false)
	on("scenario/atlas", true) // never ends: not a finished span
	spans := rec.finished()
	parentByContainment(spans)
	if len(spans) != 3 {
		t.Fatalf("%d finished spans, want 3: %+v", len(spans), spans)
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
		if s.Op != 3 {
			t.Errorf("%s: op %d, want 3", s.Name, s.Op)
		}
	}
	build := byName["scenario/build"]
	if build.Layer != "scenario" || byName["scenario/topology"].Layer != "topology" || byName["bgp/compute-rib"].Layer != "bgp" {
		t.Errorf("layers: %+v", spans)
	}
	if byName["scenario/topology"].Parent != build.ID || byName["bgp/compute-rib"].Parent != build.ID {
		t.Errorf("stages inside the build are not its children: %+v", spans)
	}
	if layerOf("experiment/figure1") != "experiments" || layerOf("experiments/figure1-breakdowns") != "classify" {
		t.Errorf("layerOf: experiment/figure1 -> %s, figure1-breakdowns -> %s",
			layerOf("experiment/figure1"), layerOf("experiments/figure1-breakdowns"))
	}
}

func TestHandlerSpansPairWithClientByRequestID(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 7, Layer: "client", StartNS: 0, EndNS: 100_000},
		{ID: 2, Op: 8, Layer: "client", StartNS: 0, EndNS: 50_000},
		{ID: 3, Op: 8, Layer: "service", StartNS: 10_000, EndNS: 30_000},
		{ID: 4, Op: 7, Layer: "service", StartNS: 20_000, EndNS: 90_000},
	}
	parentHandlersByOp(spans)
	if spans[2].Parent != 2 || spans[3].Parent != 1 {
		t.Fatalf("handler parents %d, %d; want 2, 1", spans[2].Parent, spans[3].Parent)
	}
	handler, overhead := handlerTimes(spans)
	if len(handler) != 2 || handler[0] != 20 || handler[1] != 70 {
		t.Errorf("handler µs %v, want [20 70]", handler)
	}
	if len(overhead) != 2 || overhead[0] != 30 || overhead[1] != 30 {
		t.Errorf("overhead µs %v, want [30 30]", overhead)
	}
}
