package experiments

import (
	"strings"
	"testing"
)

func TestOptions31(t *testing.T) {
	cfg := smallBase()
	res := runOK(t, RunOptions31Ctx, cfg)

	// Option 3 (virtually indexed, no penalty) must beat the conventional
	// baseline on the bad programs.
	if res.Option3IPC <= res.ConvIPC {
		t.Errorf("option 3 IPC %.3f did not beat conventional %.3f", res.Option3IPC, res.ConvIPC)
	}
	// Option 1 pays a cycle per load: below option 3, but on conflict-
	// bound programs it should still beat conventional.
	if res.Option1IPC > res.Option3IPC {
		t.Errorf("option 1 (%.3f) cannot beat option 3 (%.3f)", res.Option1IPC, res.Option3IPC)
	}
	if res.Option1IPC <= res.ConvIPC {
		t.Errorf("option 1 (%.3f) should still beat conventional (%.3f) on bad programs",
			res.Option1IPC, res.ConvIPC)
	}
	// Option 2: large pages get the poly win; small pages do not.
	if res.Option2LargePagesMiss >= res.Option2SmallPagesMiss {
		t.Errorf("adaptive: large-page miss %.2f should be below small-page %.2f",
			res.Option2LargePagesMiss, res.Option2SmallPagesMiss)
	}
	// Option 4 recovers direct-mapped conflicts.
	if res.Option4Miss >= res.DirectMappedMiss {
		t.Errorf("column-assoc %.2f should beat direct-mapped %.2f on bad programs",
			res.Option4Miss, res.DirectMappedMiss)
	}
	if !strings.Contains(res.report(cfg).RenderString(), "virtual-real") {
		t.Error("render incomplete")
	}
}
