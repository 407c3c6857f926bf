package selector

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn/models"
)

var update = flag.Bool("update", false, "regenerate testdata/analytic_plans.json")

const analyticPlansFile = "testdata/analytic_plans.json"

// goldenPlan is one pinned analytic selection: the chosen primitive per
// conv layer (in ConvLayers order) and the plan's TotalCost, which must
// reproduce bit for bit.
type goldenPlan struct {
	Total float64  `json:"total"`
	Convs []string `json:"convs"`
}

// analyticPlans selects every model and demo network at N ∈ {1, 3, 8}
// under the Haswell model at 2 threads and the Cortex-A57 model at 4,
// keyed "machine/threads/net/N".
func analyticPlans(t *testing.T) map[string]goldenPlan {
	t.Helper()
	machines := []struct {
		m       cost.Machine
		threads int
	}{{cost.IntelHaswell, 2}, {cost.CortexA57, 4}}
	out := map[string]goldenPlan{}
	for _, mc := range machines {
		opts := Options{Prof: cost.NewModel(mc.m), Threads: mc.threads}
		for _, name := range append(models.Names(), models.DemoNames()...) {
			g := mustNet(t, name)
			for _, n := range []int{1, 3, 8} {
				plan, err := SelectBatch(g, n, opts)
				if err != nil {
					t.Fatalf("%s at N=%d: %v", name, n, err)
				}
				gp := goldenPlan{Total: plan.TotalCost()}
				for _, id := range g.ConvLayers() {
					gp.Convs = append(gp.Convs, plan.Primitives[id].Name)
				}
				out[fmt.Sprintf("%s/t%d/%s/n%d", mc.m.Name, mc.threads, name, n)] = gp
			}
		}
	}
	return out
}

// TestAnalyticPlansGolden pins what the analytic cost model selects, so
// a refactor of the pricing path cannot move a single choice or a single
// bit of predicted cost unnoticed. Regenerate with -update only when a
// change is meant to re-price the analytic model.
func TestAnalyticPlansGolden(t *testing.T) {
	got := analyticPlans(t)
	if *update {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(analyticPlansFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analyticPlansFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(analyticPlansFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestAnalyticPlansGolden -update to create it)", err)
	}
	var want map[string]goldenPlan
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d plans selected, golden file pins %d", len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: pinned plan no longer selected", key)
			continue
		}
		if math.Float64bits(g.Total) != math.Float64bits(w.Total) {
			t.Errorf("%s: TotalCost %v, pinned %v", key, g.Total, w.Total)
		}
		if len(g.Convs) != len(w.Convs) {
			t.Errorf("%s: %d conv layers, pinned %d", key, len(g.Convs), len(w.Convs))
			continue
		}
		for i := range w.Convs {
			if g.Convs[i] != w.Convs[i] {
				t.Errorf("%s: conv %d selects %s, pinned %s", key, i, g.Convs[i], w.Convs[i])
			}
		}
	}
}
