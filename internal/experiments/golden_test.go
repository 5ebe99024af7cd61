package experiments

import (
	"context"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/exp"
)

// goldenReport runs one experiment through the registry path — the same
// exp.RunWith every CLI invocation goes through — and returns its report.
func goldenReport(t *testing.T, name string, cfg exp.Config) *exp.Report {
	t.Helper()
	e, ok := exp.Get(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	rep, err := exp.RunWith(context.Background(), nil, e, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// goldenValues computes a flat name -> value map of exact experiment
// outputs at the smallBase() test options, extracted from the uniform
// Report model.  Every value is either an integer counter or a float64
// printed with full round-trip precision, so the comparison below pins
// the simulation engines bit-for-bit THROUGH the registry: any change
// to cache lookup, replacement, hierarchy inclusion, trace replay order
// or the result -> report conversion shows up as a golden mismatch.
func goldenValues(t *testing.T) map[string]string {
	t.Helper()
	vals := make(map[string]string)
	f := func(name string, v float64) { vals[name] = fmt.Sprintf("%.17g", v) }
	u := func(name string, v uint64) { vals[name] = fmt.Sprintf("%d", v) }
	getF := func(rep *exp.Report, key, table, row, col string) {
		t.Helper()
		v, ok := rep.Float(table, row, col)
		if !ok {
			t.Fatalf("%s: report cell (%s, %s, %s) missing", key, table, row, col)
		}
		f(key, v)
	}
	getI := func(rep *exp.Report, key, table, row, col string) {
		t.Helper()
		v, ok := rep.Int(table, row, col)
		if !ok {
			t.Fatalf("%s: report cell (%s, %s, %s) missing", key, table, row, col)
		}
		u(key, uint64(v))
	}

	fig := goldenReport(t, "fig1", &Fig1Config{Base: smallBase(), Rounds: 9, MaxStride: 512})
	for _, s := range fig1Schemes() {
		getI(fig, "fig1/patho/"+string(s), "pathological", string(s), "pathological")
		hist, ok := fig.SeriesByName("hist/" + string(s))
		if !ok {
			t.Fatalf("fig1: histogram series for %s missing", s)
		}
		u("fig1/hist/"+string(s), uint64(hist.Total()))
	}

	orgs := goldenReport(t, "missratio", &OrgsConfig{Base: smallBase()})
	for _, name := range orgs.Table("missratio").Columns[1:] {
		getF(orgs, "orgs/avg/"+name.Name, "missratio", "average", name.Name)
	}

	sd := goldenReport(t, "stddev", &StdDevConfig{Base: smallBase()})
	getF(sd, "stddev/conv", "stddev", "conventional", "stddev")
	getF(sd, "stddev/ipoly", "stddev", "I-Poly skewed", "stddev")

	sw := goldenReport(t, "sweep", &SweepConfig{Base: smallBase()})
	for _, size := range []int{4, 8, 16, 32} {
		for _, ways := range []int{1, 2, 4} {
			for _, scheme := range []string{"a2", "a2-Hp-Sk"} {
				getF(sw, fmt.Sprintf("sweep/%dKB/%dw/%s", size, ways, scheme),
					"sweep", fmt.Sprintf("%dKB", size), fmt.Sprintf("%dw %s", ways, scheme))
			}
		}
	}

	holes := goldenReport(t, "holes", &HolesConfig{Base: smallBase()})
	for _, l2KB := range []int{32, 64, 128, 256, 512, 1024} {
		row := fmt.Sprintf("%dKB", l2KB)
		getI(holes, fmt.Sprintf("holes/sweep/%dKB/l2misses", l2KB), "sweep", row, "L2 misses")
		getI(holes, fmt.Sprintf("holes/sweep/%dKB/holes", l2KB), "sweep", row, "holes")
	}
	for _, name := range holes.Table("suite").Columns[0].Strings {
		getF(holes, "holes/suite/"+name, "suite", name, "holes per L2 miss")
	}

	tc := goldenReport(t, "threec", &ThreeCConfig{Base: smallBase()})
	for _, name := range tc.Table("threec").Columns[0].Strings {
		getF(tc, "threec/conv/"+name, "threec", name, "conv conflict")
		getF(tc, "threec/ipoly/"+name, "threec", name, "Hp conflict")
	}

	t2 := goldenReport(t, "table2", &Table2Config{Base: smallBase()})
	getF(t2, "table2/combined/c8ipc", "table2", "Combined", "8K IPC")
	getF(t2, "table2/combined/ipolyipc", "table2", "Combined", "Hp IPC")
	getF(t2, "table2/combined/c8miss", "table2", "Combined", "8K miss")
	getF(t2, "table2/combined/ipolymiss", "table2", "Combined", "Hp miss")

	ca := goldenReport(t, "colassoc", &ColAssocConfig{Base: smallBase()})
	for _, name := range ca.Table("colassoc").Columns[0].Strings {
		getF(ca, "colassoc/firstprobe/"+name, "colassoc", name, "first-probe hit rate")
	}

	cv := goldenReport(t, "curves", &CurvesConfig{Base: smallBase(), MaxWays: 4})
	for _, scheme := range []string{"a2", "a2-Hx", "a2-Hp"} {
		for _, w := range []int{1, 2, 4} {
			getF(cv, fmt.Sprintf("curves/128sets/%s/w%d", scheme, w),
				"curves", "128", fmt.Sprintf("%s w%d", scheme, w))
		}
	}
	getF(cv, "curves/fa/8KB", "fa", "8KB", "load miss %")
	getF(cv, "curves/fa/64KB", "fa", "64KB", "load miss %")
	return vals
}

// TestGoldenMissRatios pins the exact experiment outputs of the access
// engine through the registry's Run(ctx, Config) -> Report path.  Run
// with GOLDEN_PRINT=1 to emit the table for regeneration after an
// intentional behaviour change.
func TestGoldenMissRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pin is slow")
	}
	vals := goldenValues(t)
	if os.Getenv("GOLDEN_PRINT") != "" {
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("\t%q: %q,\n", k, vals[k])
		}
		t.Fatal("GOLDEN_PRINT set: table printed above")
	}
	for k, want := range goldenTable {
		if got, ok := vals[k]; !ok {
			t.Errorf("golden key %s missing from run", k)
		} else if got != want {
			t.Errorf("golden %s = %s, want %s", k, got, want)
		}
	}
	for k := range vals {
		if _, ok := goldenTable[k]; !ok {
			t.Errorf("run produced unpinned key %s", k)
		}
	}
}

// goldenTable pins 141 exact values.  It predates the registry redesign
// and the stack-distance port (the values were first pinned against the
// pre-registry RunXxx drivers, and the original 130 against explicit
// per-configuration simulation), so a clean pass here proves both
// redesigns output-preserving; the 11 curves/* entries pin the
// stack-distance experiment itself.
var goldenTable = map[string]string{
	"colassoc/firstprobe/applu":    "0.96302164200386575",
	"colassoc/firstprobe/apsi":     "0.99971402243335139",
	"colassoc/firstprobe/compress": "0.99870242214532867",
	"colassoc/firstprobe/fpppp":    "0.31263582738280038",
	"colassoc/firstprobe/gcc":      "0.96763732180258089",
	"colassoc/firstprobe/go":       "0.99800872646343963",
	"colassoc/firstprobe/hydro2d":  "0.9995077609687264",
	"colassoc/firstprobe/ijpeg":    "0.5790868386585849",
	"colassoc/firstprobe/li":       "0.99855052264808364",
	"colassoc/firstprobe/m88ksim":  "0.96656425586094274",
	"colassoc/firstprobe/mgrid":    "0.99786578136115722",
	"colassoc/firstprobe/perl":     "0.99884997987464785",
	"colassoc/firstprobe/su2cor":   "0.99921396006917151",
	"colassoc/firstprobe/swim":     "0.17600129722717692",
	"colassoc/firstprobe/tomcatv":  "0.51174880432522352",
	"colassoc/firstprobe/turb3d":   "0.93924604510265908",
	"colassoc/firstprobe/vortex":   "0.99496689535336591",
	"colassoc/firstprobe/wave5":    "0.55149992021700978",
	"curves/128sets/a2-Hp/w1":      "22.251672142906259",
	"curves/128sets/a2-Hp/w2":      "11.014449783934985",
	"curves/128sets/a2-Hp/w4":      "9.230905081125151",
	"curves/128sets/a2-Hx/w1":      "22.15140386737378",
	"curves/128sets/a2-Hx/w2":      "11.055145172990162",
	"curves/128sets/a2-Hx/w4":      "9.2432344208017625",
	"curves/128sets/a2/w1":         "26.808378391489693",
	"curves/128sets/a2/w2":         "18.72810315364903",
	"curves/128sets/a2/w4":         "15.761581847039233",
	"curves/fa/64KB":               "7.4905057132421398",
	"curves/fa/8KB":                "10.890242176237841",
	"fig1/hist/a2":                 "511",
	"fig1/hist/a2-Hp":              "511",
	"fig1/hist/a2-Hp-Sk":           "511",
	"fig1/hist/a2-Hx-Sk":           "511",
	"fig1/patho/a2":                "36",
	"fig1/patho/a2-Hp":             "5",
	"fig1/patho/a2-Hp-Sk":          "0",
	"fig1/patho/a2-Hx-Sk":          "0",
	"holes/suite/applu":            "0",
	"holes/suite/apsi":             "0.00027570995312930797",
	"holes/suite/compress":         "0",
	"holes/suite/fpppp":            "0",
	"holes/suite/gcc":              "0",
	"holes/suite/go":               "0.0010725777618877368",
	"holes/suite/hydro2d":          "0.0003756574004507889",
	"holes/suite/ijpeg":            "0",
	"holes/suite/li":               "0",
	"holes/suite/m88ksim":          "0",
	"holes/suite/mgrid":            "0",
	"holes/suite/perl":             "0",
	"holes/suite/su2cor":           "0.00020185708518368994",
	"holes/suite/swim":             "0.0035897435897435897",
	"holes/suite/tomcatv":          "0",
	"holes/suite/turb3d":           "0",
	"holes/suite/vortex":           "0.0036138358286009293",
	"holes/suite/wave5":            "0.0038829151732377538",
	"holes/sweep/1024KB/holes":     "613",
	"holes/sweep/1024KB/l2misses":  "76929",
	"holes/sweep/128KB/holes":      "4607",
	"holes/sweep/128KB/l2misses":   "79382",
	"holes/sweep/256KB/holes":      "2404",
	"holes/sweep/256KB/l2misses":   "78852",
	"holes/sweep/32KB/holes":       "16004",
	"holes/sweep/32KB/l2misses":    "79815",
	"holes/sweep/512KB/holes":      "1249",
	"holes/sweep/512KB/l2misses":   "78055",
	"holes/sweep/64KB/holes":       "8814",
	"holes/sweep/64KB/l2misses":    "79686",
	"orgs/avg/2-way":               "18.72810315364903",
	"orgs/avg/2-way I-Poly-Sk":     "11.086730689763527",
	"orgs/avg/2-way shuffle-Hx2":   "11.785393415952242",
	"orgs/avg/2-way skewed-Hx":     "11.657114062996719",
	"orgs/avg/column-assoc":        "23.058123466823545",
	"orgs/avg/direct-mapped":       "22.647799465951223",
	"orgs/avg/fully-assoc":         "9.5129938333032342",
	"orgs/avg/victim(4)":           "21.29979099688931",
	"stddev/conv":                  "19.761028151028299",
	"stddev/ipoly":                 "4.4877486390395092",
	"sweep/16KB/1w/a2":             "20.540254713193367",
	"sweep/16KB/1w/a2-Hp-Sk":       "15.915860956436136",
	"sweep/16KB/2w/a2":             "15.416410982972703",
	"sweep/16KB/2w/a2-Hp-Sk":       "9.9578062838886474",
	"sweep/16KB/4w/a2":             "15.761581847039233",
	"sweep/16KB/4w/a2-Hp-Sk":       "9.2133293000867162",
	"sweep/32KB/1w/a2":             "17.867081428538256",
	"sweep/32KB/1w/a2-Hp-Sk":       "14.322389614655492",
	"sweep/32KB/2w/a2":             "14.097313062057607",
	"sweep/32KB/2w/a2-Hp-Sk":       "8.8631383342616399",
	"sweep/32KB/4w/a2":             "14.356478680489523",
	"sweep/32KB/4w/a2-Hp-Sk":       "8.7159872564400249",
	"sweep/4KB/1w/a2":              "26.808378391489693",
	"sweep/4KB/1w/a2-Hp-Sk":        "22.251672142906259",
	"sweep/4KB/2w/a2":              "21.14506468238838",
	"sweep/4KB/2w/a2-Hp-Sk":        "17.454794090913566",
	"sweep/4KB/4w/a2":              "21.425223521491027",
	"sweep/4KB/4w/a2-Hp-Sk":        "17.507374667530218",
	"sweep/8KB/1w/a2":              "22.647799465951223",
	"sweep/8KB/1w/a2-Hp-Sk":        "18.145780007046756",
	"sweep/8KB/2w/a2":              "18.72810315364903",
	"sweep/8KB/2w/a2-Hp-Sk":        "11.086730689763527",
	"sweep/8KB/4w/a2":              "18.054015341012107",
	"sweep/8KB/4w/a2-Hp-Sk":        "10.063115512804277",
	"table2/combined/c8ipc":        "1.3035376980362077",
	"table2/combined/c8miss":       "18.018167694460494",
	"table2/combined/ipolyipc":     "1.4113750136248033",
	"table2/combined/ipolymiss":    "11.926716973369116",
	"threec/conv/applu":            "2.7937150785615179",
	"threec/conv/apsi":             "0.58999999999999997",
	"threec/conv/compress":         "0.70750000000000002",
	"threec/conv/fpppp":            "1.8749765627929651",
	"threec/conv/gcc":              "0.32250806270156757",
	"threec/conv/go":               "0.51500000000000001",
	"threec/conv/hydro2d":          "0.81499999999999995",
	"threec/conv/ijpeg":            "0",
	"threec/conv/li":               "0.24249999999999999",
	"threec/conv/m88ksim":          "1.2374845314433569",
	"threec/conv/mgrid":            "3.5174560317996026",
	"threec/conv/perl":             "0.34999999999999998",
	"threec/conv/su2cor":           "0.61250000000000004",
	"threec/conv/swim":             "67.463333333333338",
	"threec/conv/tomcatv":          "42.40325087953746",
	"threec/conv/turb3d":           "3.6599542505718681",
	"threec/conv/vortex":           "0.29625740643516085",
	"threec/conv/wave5":            "40.447194487413867",
	"threec/ipoly/applu":           "3.2099598755015561",
	"threec/ipoly/apsi":            "1.5475000000000001",
	"threec/ipoly/compress":        "1.28",
	"threec/ipoly/fpppp":           "1.1549855626804666",
	"threec/ipoly/gcc":             "0.6300157503937599",
	"threec/ipoly/go":              "0.88500000000000001",
	"threec/ipoly/hydro2d":         "1.4325000000000001",
	"threec/ipoly/ijpeg":           "0.083333333333333329",
	"threec/ipoly/li":              "0.45750000000000002",
	"threec/ipoly/m88ksim":         "1.2374845314433569",
	"threec/ipoly/mgrid":           "2.051224359695504",
	"threec/ipoly/perl":            "0.53000000000000003",
	"threec/ipoly/su2cor":          "1.1200000000000001",
	"threec/ipoly/swim":            "4.5233333333333334",
	"threec/ipoly/tomcatv":         "0.46363214879864728",
	"threec/ipoly/turb3d":          "3.2137098286271422",
	"threec/ipoly/vortex":          "0.42376059401485039",
	"threec/ipoly/wave5":           "5.7882154408662636",
}
