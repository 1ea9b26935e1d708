package obs_test

import (
	"testing"

	"lintime/internal/obs"
)

func TestStageString(t *testing.T) {
	want := map[obs.Stage]string{
		obs.StageInvoke:    "invoke",
		obs.StageBroadcast: "broadcast",
		obs.StageDeliver:   "deliver",
		obs.StageTimer:     "timer",
		obs.StageRespond:   "respond",
		obs.Stage(99):      "Stage(99)",
	}
	for stage, s := range want {
		if got := stage.String(); got != s {
			t.Fatalf("Stage(%d).String(): got %q, want %q", stage, got, s)
		}
	}
}
