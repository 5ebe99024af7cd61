package experiments

import (
	"testing"

	"repro/internal/exp"
)

// TestReportKeysPinned pins the result-cache address of every registered
// experiment at its default config: the canonical config and the
// ReportKey hashed from it.  A change that alters either orphans every
// report already stored under the old key, so it must be deliberate;
// code changes that alter results bump ReportRev instead.
func TestReportKeysPinned(t *testing.T) {
	want := map[string]struct{ canon, key string }{
		"ablate": {
			`{"instructions":200000,"seed":1997}`,
			"32dc8dbfa2b00cd5d08614f0c054bfd498aaa5465b72dd11fb49eddc0e5efede",
		},
		"colassoc": {
			`{"instructions":200000,"seed":1997}`,
			"105f57878a86b73daf4385aea04a4d6ff60a21af5b6a887cd1681ca03655cd0e",
		},
		"curves": {
			`{"instructions":200000,"max_ways":8,"seed":1997}`,
			"a894913a6536e483acb51093702a6a3747665d4931a0b78a340ac04ca1c983ae",
		},
		"fig1": {
			`{"MaxStride":4096,"Rounds":17,"instructions":200000,"seed":1997}`,
			"459f00229647dcdfb0eecbbca9dd72a428f86666309dd2007e5f17deb94998b2",
		},
		"holes": {
			`{"instructions":200000,"seed":1997}`,
			"0718469076c3b95773b3f76d358f0f8f40e4a2ce8fc1e9015bec3d101f9d6796",
		},
		"interleave": {
			`{"MaxStride":4096,"instructions":200000,"seed":1997}`,
			"d190498d9b243610e18c8bf1d1d49e56cd3cd59de3550897850fbfaeaad721ce",
		},
		"missratio": {
			`{"instructions":200000,"seed":1997}`,
			"d0db970b6bb32103761b1fddba04db4baf647137c5f15af81df86e118fee61af",
		},
		"options31": {
			`{"instructions":200000,"seed":1997}`,
			"3d317ac18d7f526aeb080bcc9704f04e6d58a81cdc60a947b8c8bcca064db172",
		},
		"replay": {
			`{"addrbits":19,"bench":"tomcatv","block":32,"instructions":200000,"scheme":"a2-Hp-Sk","seed":1997,"size":8192,"timeshards":1,"warmup":65536,"ways":2}`,
			"6fcb408305ab02b820bb9dfca85104f7552d2b8b64c427f589e5c4b37094dd47",
		},
		"stddev": {
			`{"instructions":200000,"seed":1997}`,
			"2e9f57462e011c035de7137dbe4d524df86809f88e62e5bb140784dfe1c86179",
		},
		"sweep": {
			`{"instructions":200000,"seed":1997}`,
			"035619a24f6e79fb1df6e12482af7b185910089e07d08c2d279510cb867633b3",
		},
		"table2": {
			`{"instructions":200000,"seed":1997}`,
			"214beb12adf88a9b79dad6277b442541f4e4b6798d3b15c1f82bc2f10260910a",
		},
		"table3": {
			`{"instructions":200000,"seed":1997}`,
			"d5b9517b60cb296dcfd648aa30dc7b45a417fca86526a66eac79135f4906aaa3",
		},
		"threec": {
			`{"instructions":200000,"seed":1997}`,
			"76d221b066f9b590b64a90efcc52229e742b545242a4b8510380b3f86930a95d",
		},
	}
	for _, e := range exp.All() {
		canon, err := exp.CanonicalConfig(e, e.New())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		key, err := exp.ReportKey(e, e.New())
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		w, ok := want[e.Name]
		delete(want, e.Name)
		if !ok {
			t.Errorf("%s: no pinned key (canonical config %s, key %s)", e.Name, canon, key)
			continue
		}
		if string(canon) != w.canon {
			t.Errorf("%s: canonical config\n got %s\nwant %s", e.Name, canon, w.canon)
		}
		if key != w.key {
			t.Errorf("%s: report key\n got %s\nwant %s", e.Name, key, w.key)
		}
	}
	for name := range want {
		t.Errorf("%s: pinned but not registered", name)
	}
}
