package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// newTestRegistry hosts micronet — the smallest real network — behind
// a real selected plan and compiled engine.
func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := NewRegistry([]string{"micronet"}, Config{
		Threads: 2,
		Batch:   BatchOptions{MaxBatch: 4, MaxWait: time.Millisecond, QueueCap: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reg.Close)
	return reg
}

func postInfer(t *testing.T, srv *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServerInference is the end-to-end HTTP smoke: POST one image,
// expect 200, the declared output shape, and a softmax that sums to 1.
func TestServerInference(t *testing.T) {
	reg := newTestRegistry(t)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	m, _ := reg.Get("micronet")
	data := make([]float32, m.InC*m.InH*m.InW)
	for i := range data {
		data[i] = float32(i%7) * 0.1
	}
	resp := postInfer(t, srv, "/v1/models/micronet/infer", InferRequest{Data: data})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var out InferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Shape != [3]int{m.OutC, m.OutH, m.OutW} {
		t.Errorf("shape %v, want %v", out.Shape, [3]int{m.OutC, m.OutH, m.OutW})
	}
	if len(out.Output) != m.OutC*m.OutH*m.OutW {
		t.Fatalf("output has %d elements, want %d", len(out.Output), m.OutC*m.OutH*m.OutW)
	}
	var sum float64
	for _, v := range out.Output {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Errorf("softmax output sums to %g, want 1", sum)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	reg := newTestRegistry(t)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	cases := []struct {
		name, path string
		body       any
		want       int
	}{
		{"unknown model", "/v1/models/nope/infer", InferRequest{Data: make([]float32, 3*16*16)}, http.StatusNotFound},
		{"wrong length", "/v1/models/micronet/infer", InferRequest{Data: make([]float32, 5)}, http.StatusBadRequest},
		{"bad timeout", "/v1/models/micronet/infer?timeout_ms=zero", InferRequest{Data: make([]float32, 3*16*16)}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postInfer(t, srv, c.path, c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/models/micronet/infer", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

func TestServerIntrospection(t *testing.T) {
	reg := newTestRegistry(t)
	srv := httptest.NewServer(NewServer(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "micronet" || infos[0].InputShape != [3]int{3, 16, 16} {
		t.Errorf("/models = %+v", infos)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := stats["micronet"]; !ok {
		t.Errorf("/stats missing micronet: %v", stats)
	}
}

// TestRegistryUnknownModel: a bad name fails loading and leaves nothing
// running.
func TestRegistryUnknownModel(t *testing.T) {
	if _, err := NewRegistry([]string{"micronet", "not-a-net"}, Config{}); err == nil {
		t.Fatal("unknown model should fail registry construction")
	}
}
