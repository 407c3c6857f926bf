package cost

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/dnn"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/tensor"
)

func tableNet() *dnn.Graph {
	b, x := dnn.NewBuilder("table-net", 3, 16, 16)
	x = b.Conv(x, "c1", 8, 3, 1, 1)
	x = b.MaxPool(x, "p1", 2, 2, 0)
	x = b.Conv(x, "c2", 8, 3, 1, 1)
	x = b.Softmax(x, "sm")
	return func() *dnn.Graph { return b.Graph() }()
}

func TestBuildTableCoversNetwork(t *testing.T) {
	net := tableNet()
	lib := conv.Library()
	mo := NewModel(IntelHaswell)
	tab := BuildTable(net, lib, mo, IntelHaswell.Name, 2)

	if tab.NumEntries() == 0 {
		t.Fatal("empty table")
	}
	// Every conv scenario and every supporting primitive must match the
	// live profiler exactly.
	for _, id := range net.ConvLayers() {
		s := net.Layers[id].Conv
		for _, p := range lib {
			if !p.Supports(s) {
				continue
			}
			got := tab.Primitive(p, s, 2, 1)
			want := mo.Primitive(p, s, 2, 1)
			if got != want {
				t.Errorf("%s on %s: table %g != live %g", p.Name, s, got, want)
			}
		}
	}
	// Transform entries exist for every layer output shape.
	for _, l := range net.Layers {
		for _, tr := range tensor.DirectTransforms() {
			got := tab.Transform(tr, l.OutC, l.OutH, l.OutW, 1)
			want := mo.Transform(tr, l.OutC, l.OutH, l.OutW, 1)
			if got != want {
				t.Errorf("%s at %dx%dx%d: table %g != live %g", tr.Name, l.OutC, l.OutH, l.OutW, got, want)
			}
		}
	}
}

func TestTableMissingEntriesAreInf(t *testing.T) {
	tab := &Table{Nodes: map[string]map[string]float64{}, Transforms: map[string]map[string]float64{}}
	p := conv.Sum2D()
	s := conv.Scenario{C: 1, H: 4, W: 4, Stride: 1, K: 1, M: 1}
	if !math.IsInf(tab.Primitive(p, s, 1, 1), 1) {
		t.Error("missing node entry should be +Inf")
	}
	if !math.IsInf(tab.Transform(tensor.DirectTransforms()[0], 1, 2, 3, 1), 1) {
		t.Error("missing transform entry should be +Inf")
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	net := tableNet()
	tab := BuildTable(net, conv.Library(), NewModel(CortexA57), CortexA57.Name, 4)
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Machine != CortexA57.Name || loaded.Threads != 4 {
		t.Errorf("metadata lost: %+v", loaded)
	}
	if loaded.NumEntries() != tab.NumEntries() {
		t.Errorf("entries %d != %d after round trip", loaded.NumEntries(), tab.NumEntries())
	}
	// The §4 ship-the-table deployment story requires bit-identical
	// costs on the target: every node and transform entry must survive
	// the JSON round trip exactly (Go's encoder emits the shortest
	// representation that round-trips each float64).
	if !reflect.DeepEqual(loaded.Nodes, tab.Nodes) {
		t.Error("node costs changed across round trip")
	}
	if !reflect.DeepEqual(loaded.Transforms, tab.Transforms) {
		t.Error("transform costs changed across round trip")
	}
	// And the Profiler view over the loaded table answers identically.
	for _, id := range net.ConvLayers() {
		s := net.Layers[id].Conv
		for _, p := range conv.Library() {
			if !p.Supports(s) {
				continue
			}
			if loaded.Primitive(p, s, 4, 1) != tab.Primitive(p, s, 4, 1) {
				t.Errorf("node cost for %s on %s changed across round trip", p.Name, s)
			}
		}
	}
	for _, l := range net.Layers {
		for _, tr := range tensor.DirectTransforms() {
			if loaded.Transform(tr, l.OutC, l.OutH, l.OutW, 1) != tab.Transform(tr, l.OutC, l.OutH, l.OutW, 1) {
				t.Errorf("transform cost for %s at %d×%d×%d changed across round trip",
					tr.Name, l.OutC, l.OutH, l.OutW)
			}
		}
	}
}

func TestLoadTableRejectsGarbage(t *testing.T) {
	if _, err := LoadTable(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail to load")
	}
	if _, err := LoadTable(strings.NewReader(`{"machine":"x"}`)); err == nil {
		t.Error("missing sections should fail to load")
	}
}

// TestTableIsTiny pins the paper's §4 claim: the cost table is tiny
// compared to the model weights (on a real network, not a toy).
func TestTableIsTiny(t *testing.T) {
	net, err := models.Build("alexnet")
	if err != nil {
		t.Fatal(err)
	}
	tab := BuildTable(net, conv.Library(), NewModel(IntelHaswell), "intel", 1)
	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	weightBytes := int64(0)
	for _, id := range net.ConvLayers() {
		weightBytes += net.Layers[id].Conv.KernelBytes()
	}
	if int64(buf.Len()) > weightBytes {
		t.Errorf("cost table (%d B) should be smaller than the weights (%d B)", buf.Len(), weightBytes)
	}
}

// TestTableBatchKeysRoundTrip: a table profiled at several batch sizes
// must survive the JSON round trip with every batch-keyed entry intact,
// and the batched Profiler view over the loaded table must answer
// identically to the live profiler it was built from.
func TestTableBatchKeysRoundTrip(t *testing.T) {
	net := tableNet()
	lib := conv.Library()
	mo := NewModel(IntelHaswell)
	batches := []int{1, 4}
	tab := BuildTableBatches(net, lib, mo, IntelHaswell.Name, 2, batches)

	var buf bytes.Buffer
	if err := tab.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Batches, batches) {
		t.Errorf("Batches = %v, want %v", loaded.Batches, batches)
	}
	if !reflect.DeepEqual(loaded.Nodes, tab.Nodes) {
		t.Error("batch-keyed node costs changed across round trip")
	}
	if !reflect.DeepEqual(loaded.Transforms, tab.Transforms) {
		t.Error("batch-keyed transform costs changed across round trip")
	}
	for _, id := range net.ConvLayers() {
		s := net.Layers[id].Conv
		for _, p := range lib {
			if !p.Supports(s) {
				continue
			}
			for _, b := range batches {
				got := loaded.Primitive(p, s, 2, b)
				want := mo.Primitive(p, s, 2, b)
				if got != want {
					t.Errorf("%s on %s @%d: table %g != live %g", p.Name, s, b, got, want)
				}
			}
		}
	}
	for _, l := range net.Layers {
		for _, tr := range tensor.DirectTransforms() {
			got := loaded.Transform(tr, l.OutC, l.OutH, l.OutW, 4)
			want := mo.Transform(tr, l.OutC, l.OutH, l.OutW, 4)
			if got != want {
				t.Errorf("%s at %dx%dx%d @4: table %g != live %g", tr.Name, l.OutC, l.OutH, l.OutW, got, want)
			}
		}
	}
}

// TestTableBatchFallback: a (shape, N) key missing from the table falls
// back to N times the batch-1 entry; a scenario never profiled at all
// stays +Inf.
func TestTableBatchFallback(t *testing.T) {
	net := tableNet()
	lib := conv.Library()
	tab := BuildTable(net, lib, NewModel(IntelHaswell), "intel", 1) // batch-1 entries only

	s := net.Layers[net.ConvLayers()[0]].Conv
	for _, p := range lib {
		if !p.Supports(s) {
			continue
		}
		b1 := tab.Primitive(p, s, 1, 1)
		if got, want := tab.Primitive(p, s, 1, 8), 8*b1; got != want {
			t.Errorf("%s: batch-8 fallback %g, want 8 × %g = %g", p.Name, got, b1, want)
		}
	}
	tr := tensor.DirectTransforms()[0]
	l := net.Layers[0]
	if got, want := tab.Transform(tr, l.OutC, l.OutH, l.OutW, 8), 8*tab.Transform(tr, l.OutC, l.OutH, l.OutW, 1); got != want {
		t.Errorf("transform batch-8 fallback %g, want %g", got, want)
	}
	missing := conv.Scenario{C: 999, H: 9, W: 9, Stride: 1, K: 3, M: 9, Pad: 1}
	if !math.IsInf(tab.Primitive(conv.Sum2D(), missing, 1, 8), 1) {
		t.Error("unprofiled scenario should be +Inf at any batch")
	}
}

// TestTableMixedVersionLoad: a table serialized before batch-aware
// profiling (bare shape keys, no "batches" field) must load under the
// new code and drive batched lookups through the batch-1 fallback.
func TestTableMixedVersionLoad(t *testing.T) {
	old := `{
	 "machine": "legacy-host",
	 "threads": 1,
	 "nodes": {"{C=3 H=16 W=16 δ=1 K=3 M=8 P=1}": {"sum2d": 0.25}},
	 "transforms": {"8x16x16": {"chw2hwc": 0.125}}
	}`
	tab, err := LoadTable(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Batches) != 0 {
		t.Errorf("legacy table should carry no Batches, got %v", tab.Batches)
	}
	s := conv.Scenario{C: 3, H: 16, W: 16, Stride: 1, K: 3, M: 8, Pad: 1}
	p := conv.Sum2D()
	if got := tab.Primitive(p, s, 1, 1); got != 0.25 {
		t.Errorf("batch-1 lookup = %g, want 0.25", got)
	}
	if got := tab.Primitive(p, s, 1, 4); got != 1.0 {
		t.Errorf("batch-4 lookup through legacy table = %g, want 4 × 0.25", got)
	}
	var chw2hwc tensor.Transform
	for _, tr := range tensor.DirectTransforms() {
		if tr.Name == "chw2hwc" {
			chw2hwc = tr
		}
	}
	if got := tab.Transform(chw2hwc, 8, 16, 16, 4); got != 0.5 {
		t.Errorf("batched transform through legacy table = %g, want 4 × 0.125", got)
	}
}

// TestAddNetMergesWithoutReprofiling: calibrating a second network into
// an existing table keeps the first network's entries and records the
// union of profiled batch sizes.
func TestAddNetMergesWithoutReprofiling(t *testing.T) {
	lib := conv.Library()
	mo := NewModel(IntelHaswell)
	tab := NewTable("merge-host", 1)
	tab.AddNet(tableNet(), lib, mo, []int{1, 2})
	before := tab.NumEntries()

	other, err := models.Build("micronet")
	if err != nil {
		t.Fatal(err)
	}
	tab.AddNet(other, lib, mo, []int{2, 4})
	if tab.NumEntries() <= before {
		t.Error("second AddNet added no entries")
	}
	if want := []int{1, 2, 4}; !reflect.DeepEqual(tab.Batches, want) {
		t.Errorf("Batches = %v, want %v", tab.Batches, want)
	}
	// First net's entries are still answered exactly.
	s := tableNet().Layers[tableNet().ConvLayers()[0]].Conv
	if got, want := tab.Primitive(conv.Sum2D(), s, 1, 2), mo.Primitive(conv.Sum2D(), s, 1, 2); got != want {
		t.Errorf("first net entry %g, want %g after merge", got, want)
	}
}
