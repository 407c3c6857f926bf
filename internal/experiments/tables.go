package experiments

import (
	"fmt"
	"strings"

	"pbqpdnn/internal/conv"
	"pbqpdnn/internal/cost"
	"pbqpdnn/internal/dnn/models"
	"pbqpdnn/internal/selector"
	"pbqpdnn/internal/tensor"
)

// TableRow is one row of Table 2 or Table 3: absolute single-inference
// times in model ms for the four headline strategies.
type TableRow struct {
	Network  string
	Threaded string // "S" or "M"
	Sum2D    float64
	LocalOpt float64
	PBQP     float64
	Caffe    float64
}

// absoluteTimes computes the SUM2D / L.OPT / PBQP / CAFFE columns for
// one network and thread count.
func absoluteTimes(netName string, m cost.Machine, threads int) (TableRow, error) {
	prof := cost.NewModel(m)
	opts := selector.Options{Prof: prof, Threads: threads}
	row := TableRow{Network: netName, Threaded: "S"}
	if threads > 1 {
		row.Threaded = "M"
	}
	g, err := models.Build(netName)
	if err != nil {
		return row, err
	}
	base, err := selector.Baseline(g, opts)
	if err != nil {
		return row, err
	}
	lopt, err := selector.LocalOptimal(g, tensor.CHW, opts)
	if err != nil {
		return row, err
	}
	pb, err := selector.Select(g, opts)
	if err != nil {
		return row, err
	}
	cf, err := selector.CaffeProxy(g, opts)
	if err != nil {
		return row, err
	}
	row.Sum2D = base.TotalCost() * 1e3
	row.LocalOpt = lopt.TotalCost() * 1e3
	row.PBQP = pb.TotalCost() * 1e3
	row.Caffe = cf.TotalCost() * 1e3
	return row, nil
}

// tableNets are the networks that run on both platforms (§5.5).
var tableNets = []string{"alexnet", "googlenet"}

// Table2 regenerates the Intel absolute-time table.
func Table2() ([]TableRow, error) { return table(cost.IntelHaswell) }

// Table3 regenerates the ARM absolute-time table.
func Table3() ([]TableRow, error) { return table(cost.CortexA57) }

func table(m cost.Machine) ([]TableRow, error) {
	var rows []TableRow
	for _, threads := range []int{1, 4} {
		for _, n := range tableNets {
			r, err := absoluteTimes(n, m, threads)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// FormatTable renders rows in the paper's Table 2/3 shape.
func FormatTable(title string, rows []TableRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-16s %10s %10s %10s %10s\n", "Network", "SUM2D", "L.OPT", "PBQP", "CAFFE")
	for _, r := range rows {
		fmt.Fprintf(&b, "(%s) %-12s %10.2f %10.2f %10.2f %10.2f\n",
			r.Threaded, r.Network, r.Sum2D, r.LocalOpt, r.PBQP, r.Caffe)
	}
	return b.String()
}

// Table1Row is one family row of the qualitative traits table.
type Table1Row struct {
	Family  string
	Time    string // -, +, ++
	Memory  string
	Strided string
	BadCase string
}

// table1Probes is a probe grid spanning the regimes Table 1 talks
// about: small/large images, few/many channels, small/large kernels.
var table1Probes = []conv.Scenario{
	{C: 64, H: 56, W: 56, Stride: 1, K: 3, M: 64, Pad: 1},
	{C: 128, H: 28, W: 28, Stride: 1, K: 3, M: 128, Pad: 1},
	{C: 32, H: 112, W: 112, Stride: 1, K: 3, M: 32, Pad: 1},
	{C: 48, H: 28, W: 28, Stride: 1, K: 5, M: 64, Pad: 2},
	{C: 96, H: 14, W: 14, Stride: 1, K: 5, M: 96, Pad: 2},
}

// Table1 derives the paper's qualitative strengths/weaknesses table
// from the cost model itself: mean relative speed over the probe grid
// maps to the time column, workspace to the memory column, and the
// stride capability is read off the primitive metadata.
func Table1(m cost.Machine) []Table1Row {
	prof := cost.NewModel(m)
	lib := conv.Library()
	type agg struct {
		rel    float64
		n      int
		wsMax  int64
		stride bool
	}
	fams := map[conv.Family]*agg{}
	for _, f := range conv.Families() {
		fams[f] = &agg{}
		for _, p := range conv.ByFamily(lib, f) {
			if p.Strided {
				fams[f].stride = true
			}
		}
	}
	for _, s := range table1Probes {
		best := map[conv.Family]float64{}
		var globalBest float64
		for _, p := range lib {
			if !p.Supports(s) {
				continue
			}
			c := prof.Primitive(p, s, 1, 1)
			if b, ok := best[p.Family]; !ok || c < b {
				best[p.Family] = c
			}
			if globalBest == 0 || c < globalBest {
				globalBest = c
			}
			if ws := p.Workspace(s); ws > fams[p.Family].wsMax {
				fams[p.Family].wsMax = ws
			}
		}
		for f, c := range best {
			fams[f].rel += c / globalBest
			fams[f].n++
		}
	}
	grade := func(rel float64) string {
		switch {
		case rel < 1.3:
			return "++"
		case rel < 2.5:
			return "+"
		default:
			return "-"
		}
	}
	memGrade := func(ws int64) string {
		switch {
		case ws == 0:
			return "++"
		case ws < 4<<20:
			return "+"
		default:
			return "-"
		}
	}
	badCases := map[conv.Family]string{
		conv.FamilySum2D:    "Everything",
		conv.FamilyDirect:   "Non-strided",
		conv.FamilyIm2:      "Large image",
		conv.FamilyKn2:      "Few channels",
		conv.FamilyWinograd: "Unpredictable",
		conv.FamilyFFT:      "Small kernel",
	}
	var rows []Table1Row
	for _, f := range conv.Families() {
		if f == conv.FamilySum2D {
			continue
		}
		a := fams[f]
		st := "--"
		if a.stride {
			st = "++"
		}
		rows = append(rows, Table1Row{
			Family:  f.String(),
			Time:    grade(a.rel / float64(a.n)),
			Memory:  memGrade(a.wsMax),
			Strided: st,
			BadCase: badCases[f],
		})
	}
	return rows
}

// FormatTable1 renders the derived traits table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("== Table 1: algorithm strengths and weaknesses (derived) ==\n")
	fmt.Fprintf(&b, "%-10s %-6s %-8s %-8s %s\n", "Algorithm", "Time", "Memory", "Strided", "Bad cases")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-6s %-8s %-8s %s\n", r.Family, r.Time, r.Memory, r.Strided, r.BadCase)
	}
	return b.String()
}
