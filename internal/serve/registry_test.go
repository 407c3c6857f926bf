package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/tensor"
)

func TestBatchBuckets(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
	}
	for _, c := range cases {
		if got := batchBuckets(c.max); !reflect.DeepEqual(got, c.want) {
			t.Errorf("batchBuckets(%d) = %v, want %v", c.max, got, c.want)
		}
	}
}

// TestModelEnginesPerBucket: LoadModel pre-compiles one engine per
// batch-size bucket, and EngineFor routes a flush size to the smallest
// covering bucket — never an under-planned program, never a fresh
// compilation on the dispatch path.
func TestModelEnginesPerBucket(t *testing.T) {
	m, err := LoadModel("micronet", Config{
		Threads: 1,
		Batch:   BatchOptions{MaxBatch: 6, MaxWait: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Batcher.Close()

	var got []int
	for _, b := range m.Buckets {
		got = append(got, b.Engine.MaxBatch())
	}
	if want := []int{1, 2, 4, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bucket engines %v, want %v", got, want)
	}
	if m.Engine() != m.Buckets[0].Engine || m.Engine().MaxBatch() != 1 {
		t.Error("Model.Engine is not the batch-1 bucket")
	}
	for n, wantBucket := range map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 6, 6: 6, 9: 6} {
		if got := m.EngineFor(n).MaxBatch(); got != wantBucket {
			t.Errorf("EngineFor(%d) planned for %d, want %d", n, got, wantBucket)
		}
	}
}

// TestModelDispatchesThroughBucketEngines drives enough concurrent
// traffic through the batcher to flush at several sizes and checks
// every request is answered correctly — the end-to-end proof that the
// per-batch-size cache serves mixed batch sizes.
func TestModelDispatchesThroughBucketEngines(t *testing.T) {
	m, err := LoadModel("micronet", Config{
		Threads: 1,
		Batch:   BatchOptions{MaxBatch: 4, MaxWait: 2 * time.Millisecond, QueueCap: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Batcher.Close()

	in := tensor.New(tensor.CHW, m.InC, m.InH, m.InW)
	in.FillRandom(3)
	want, err := m.Engine().Run(in)
	if err != nil {
		t.Fatal(err)
	}

	const requests = 24
	var wg sync.WaitGroup
	errc := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := m.Batcher.Infer(context.Background(), in)
			if err != nil {
				errc <- err
				return
			}
			if !tensor.WithinRel(out, want, 1e-4) {
				errc <- errMismatch
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	s := m.Metrics.Snapshot()
	if s.Served != requests {
		t.Fatalf("served %d of %d", s.Served, requests)
	}
	// ns/image must be populated for every dispatched batch size.
	for b, count := range s.BatchHist {
		if b == 0 || count == 0 {
			continue
		}
		if s.NsPerImageByBatch[b] <= 0 {
			t.Errorf("batch size %d dispatched %d times but ns_per_image_by_batch is empty", b, count)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "batched output diverges from the batch-1 engine" }

// TestLoadModelSelectsPerBucket: every bucket carries its own plan,
// stamped with the bucket's batch size, and the compiled engine matches.
func TestLoadModelSelectsPerBucket(t *testing.T) {
	m, err := LoadModel("micronet", Config{
		Threads: 1,
		Batch:   BatchOptions{MaxBatch: 4, MaxWait: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Batcher.Close()

	if len(m.Buckets) != 3 {
		t.Fatalf("buckets = %d, want 3 (1, 2, 4)", len(m.Buckets))
	}
	for i, b := range m.Buckets {
		wantBatch := []int{1, 2, 4}[i]
		if b.Batch != wantBatch {
			t.Errorf("bucket %d: Batch = %d, want %d", i, b.Batch, wantBatch)
		}
		if b.Plan.Batch != wantBatch {
			t.Errorf("bucket %d: plan selected at batch %d, want %d", i, b.Plan.Batch, wantBatch)
		}
		if b.Engine.MaxBatch() != wantBatch {
			t.Errorf("bucket %d: engine planned for %d, want %d", i, b.Engine.MaxBatch(), wantBatch)
		}
	}
	if m.Plan() != m.Buckets[0].Plan {
		t.Error("Model.Plan is not the batch-1 bucket's plan")
	}
}

// TestRegistryCalibrateOnStart: calibrate-on-start measures the real
// primitives once, persists the table, and a restarted registry reuses
// the persisted file instead of re-profiling.
func TestRegistryCalibrateOnStart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "calibration.json")
	cfg := Config{
		Threads:       1,
		Calibrate:     true,
		TablePath:     path,
		CalibrateReps: 1,
		CalibrateTopK: 2,
		Batch:         BatchOptions{MaxBatch: 2, MaxWait: time.Millisecond},
	}
	reg, err := NewRegistry([]string{"micronet"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("calibration was not persisted: %v", err)
	}
	tab, err := cost.LoadTable(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(tab.Batches, want) {
		t.Errorf("calibrated table batches = %v, want %v", tab.Batches, want)
	}
	if tab.NumEntries() == 0 {
		t.Fatal("calibrated table is empty")
	}

	// Restart: the persisted file must be reused byte for byte (no
	// re-measurement, which would rewrite it with fresh timings).
	reg2, err := NewRegistry([]string{"micronet"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	raw2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("restart rewrote the calibration table; it should reuse the persisted file")
	}

	// The reloaded registry's plans priced against the measured table:
	// every bucket plan must be present and bucket-stamped.
	m, _ := reg2.Get("micronet")
	for i, b := range m.Buckets {
		if b.Plan.Batch != []int{1, 2}[i] {
			t.Errorf("bucket %d plan batch = %d", i, b.Plan.Batch)
		}
	}
	reg2.Close()

	// Restart with a larger batcher limit: the reused table is topped
	// up with the missing batch-4 bucket (measured and merged, not
	// linearly extrapolated) and persisted back.
	cfg.Batch.MaxBatch = 4
	reg3, err := NewRegistry([]string{"micronet"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg3.Close()
	raw3, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tab3, err := cost.LoadTable(bytes.NewReader(raw3))
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 4}; !reflect.DeepEqual(tab3.Batches, want) {
		t.Errorf("topped-up table batches = %v, want %v", tab3.Batches, want)
	}
	if tab3.NumEntries() <= tab.NumEntries() {
		t.Error("top-up added no measured entries for the new bucket")
	}
}

// TestRegistryRecalibratesForeignTable: a table at TablePath stamped
// with another packed-GEMM variant prices a different machine, so the
// registry measures afresh and overwrites it instead of reusing it.
func TestRegistryRecalibratesForeignTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "calibration.json")
	foreign := cost.NewTable("elsewhere", 1)
	foreign.GemmVariant = "bogus"
	foreign.Nodes["sentinel"] = map[string]float64{"sum2d": 1}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := foreign.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg, err := NewRegistry([]string{"micronet"}, Config{
		Threads:       1,
		Calibrate:     true,
		TablePath:     path,
		CalibrateReps: 1,
		CalibrateTopK: 2,
		Batch:         BatchOptions{MaxBatch: 1, MaxWait: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := cost.LoadTable(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if tab.GemmVariant != gemm.Variant() || tab.Machine == "elsewhere" {
		t.Errorf("table at TablePath is %q/%q, want a fresh %q calibration", tab.Machine, tab.GemmVariant, gemm.Variant())
	}
	if _, ok := tab.Nodes["sentinel"]; ok {
		t.Error("foreign table's entries were reused")
	}
	if tab.NumEntries() == 0 {
		t.Error("recalibrated table is empty")
	}
}

// TestModelBucketStats: /stats' per-bucket view — selected primitives
// per conv layer, a positive predicted ns/image, and an observed
// ns/image that fills in once the bucket has served a batch.
func TestModelBucketStats(t *testing.T) {
	m, err := LoadModel("micronet", Config{
		Threads: 1,
		Batch:   BatchOptions{MaxBatch: 2, MaxWait: time.Millisecond, QueueCap: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Batcher.Close()

	in := tensor.New(tensor.CHW, m.InC, m.InH, m.InW)
	in.FillRandom(5)
	if _, err := m.Batcher.Infer(context.Background(), in); err != nil {
		t.Fatal(err)
	}

	bs := m.BucketStats()
	if len(bs) != 2 {
		t.Fatalf("bucket stats = %d entries, want 2", len(bs))
	}
	convLayers := 0
	for _, l := range m.Net.Layers {
		if l.IsConv() {
			convLayers++
		}
	}
	for _, b := range bs {
		if len(b.Primitives) != convLayers {
			t.Errorf("bucket %d: %d primitives reported, want %d", b.Batch, len(b.Primitives), convLayers)
		}
		if b.PredictedNsPerImage <= 0 {
			t.Errorf("bucket %d: predicted ns/image %g", b.Batch, b.PredictedNsPerImage)
		}
	}
	// The singleton flush went through bucket 1: its observed ns/image
	// must be populated.
	if bs[0].ObservedNsPerImage <= 0 {
		t.Errorf("bucket 1 served a request but observed ns/image is %g", bs[0].ObservedNsPerImage)
	}
}
