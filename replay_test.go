package pipesim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"pipesim"
	"pipesim/internal/obs"
	"pipesim/internal/trace"
)

// tailDigest hashes a post-mortem: the flight-recorder events, then the
// retirement tail, one canonical line per entry.
func tailDigest(events []pipesim.ProbeEvent, retired []trace.Event) string {
	h := sha256.New()
	for _, e := range events {
		fmt.Fprintf(h, "%d %d %d %d %d\n", e.Kind, e.Cycle, e.Addr, e.Arg, e.Value)
	}
	fmt.Fprint(h, "--\n")
	for _, r := range retired {
		fmt.Fprintf(h, "%d %d %s\n", r.Cycle, r.PC, r.Inst)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// replayDigests pins, per machine, the digest of the flight-recorder tail
// and the 32-entry retirement ring that commit c26f737 recorded live, on
// every cycle, during a successful Livermore run. The post-mortem is now
// rebuilt by re-simulating the run, and must reproduce those tails exactly.
var replayDigests = map[string]string{
	"fig4a/conv/16":       "a98f5cd52639150b138b5b7791cb325b0a4d77648e48f4a28f7e1c5681c70a4a",
	"fig4a/conv/32":       "1336369def8903700fb24f3bbf20e007b678e56ba71b1905389261f835888cef",
	"fig4a/conv/64":       "a69a5927edcd31f8467481c35377021f0159e3d1555bc121f1f660722ee48796",
	"fig4a/conv/128":      "51be5758f4e97127636e74e742c3878275fcb61857740e1f97e2a3bf6e4706d3",
	"fig4a/conv/256":      "098310a51e1dcca9c38a7896396f1d248338d9d7a9dbecf905ed63981db6c426",
	"fig4a/conv/512":      "4d1eaee3241800392c5c20300ee21bf21cdf8d05ab9da57d4aa97201d75ff348",
	"fig4a/8-8/16":        "82df6afe79a1cbbbf09a7a0abe2bf005553c050e5ae0085702eec0f462052421",
	"fig4a/8-8/32":        "82df6afe79a1cbbbf09a7a0abe2bf005553c050e5ae0085702eec0f462052421",
	"fig4a/8-8/64":        "2b6af0e3b9f6c523c4707f0cd4cdaf7d442e4c5e628b87b14788f6a3f77702a1",
	"fig4a/8-8/128":       "09eccb8853d3ee4db1e9ed140b85dda43e8e7d3c4a224adc76b97ff05aae5543",
	"fig4a/8-8/256":       "455ca71bbfdbd85decec75fcb6997218d33265cfcf80c1748c8e4ac81d445662",
	"fig4a/8-8/512":       "700ce37624b78b2e06596164841846a83a0e8b566f8fca27f06a4ba8605dec1d",
	"fig4a/16-16/16":      "bdf4733223be17267ba2bc67c348b065ad0a931ea04f5ed95a558fdf45134813",
	"fig4a/16-16/32":      "bdf4733223be17267ba2bc67c348b065ad0a931ea04f5ed95a558fdf45134813",
	"fig4a/16-16/64":      "ff7494dcb9f422562089d1c4171534688ee4dfa8025527b90bb1533a1452f4da",
	"fig4a/16-16/128":     "0c13d2ee35d4dc977c4041b8ee825c493957ea22b21204de3817ab202ea410bb",
	"fig4a/16-16/256":     "0630a2da030f2b72a8e91e708e3ef4b7c98b8cca66665bb80a0f6c47b20ffd4a",
	"fig4a/16-16/512":     "7d775e034f3151b0e79fa231ed925b78b6389a494359b542934c503246bc3182",
	"fig4a/16-32/32":      "145531e4533a14d5ade906eac9dcc55af14fcffa64b81edfc48981f24a687690",
	"fig4a/16-32/64":      "646dbb56f90f8b79e532c5b090790c3046868de69f0975ee23b819335b15b027",
	"fig4a/16-32/128":     "c599a98994b41af4d750af86a938600ce49620550bd5be158d0a227f529c58f5",
	"fig4a/16-32/256":     "354d2fba0d9a020e1412b193dce4bbe04ac623074e226b706e8eb67219dc7d63",
	"fig4a/16-32/512":     "7ef041ab511243be6373ef55b03644cc6e5a5bf2a6949ba5641d60951b9bbb84",
	"fig4a/32-32/32":      "8199a136ba0def08ebfdd90665079adc4be1b480668b867ba25057c4f329aa25",
	"fig4a/32-32/64":      "47d121ed687ee47120d7473198522f8c0053866f4de78eeeef5b58ff55282606",
	"fig4a/32-32/128":     "11358344d5e4ab6861fff042a031e786168dcfff93dbdf7d44d6f2b1e946b8cc",
	"fig4a/32-32/256":     "aeb5ef3f5c1b47cedafa676ba44d56e9757c10d81ac37e8982f03378dd713ace",
	"fig4a/32-32/512":     "61d2ed5bfb1049ae25930c3473a067db2b5aed186a1f33eaa8a18bbded67341a",
	"fig5b/16-16/128":     "8580f233a97aaf0e105766fea1f775ea00b5aae4c5d4f7a4e593809263f5093c",
	"native/16-16/128":    "9c02dbfcfa7393b0ce606f0e3d4d1682f8cdb7eb2aae98d30d1ba829144a04c4",
	"tib/tib/0":           "915d3631a40c7f88c7aee74f987dbf311d98589d0f655b5142a5be9acb3eb7a0",
	"introspect/16-16/32": "17029ae52654354d3bd6426c48156ecb18e19da48009d7336994374053dce07d",
}

// replayPoints is the work golden's 29 machines plus one native-format,
// one TIB and one cache-introspection machine (whose tail carries
// KindCacheEvict events).
func replayPoints(t *testing.T) []workPoint {
	t.Helper()
	points := workPoints(t)
	native := pipesim.DefaultConfig()
	native.NativeFormat = true
	tib := pipesim.DefaultConfig()
	tib.Strategy = pipesim.StrategyTIB
	intr := figureConfig(t, "16-16", 32, 1, 4)
	intr.CacheStats = true
	return append(points,
		workPoint{"native", "16-16", 128, native},
		workPoint{"tib", "tib", 0, tib},
		workPoint{"introspect", "16-16", 32, intr})
}

// TestReplayMatchesLiveRecorder checks RecentEvents after a successful run
// against the tails pinned above.
func TestReplayMatchesLiveRecorder(t *testing.T) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range replayPoints(t) {
		id := fmt.Sprintf("%s/%s/%d", p.exp, p.variant, p.size)
		sim, err := pipesim.NewSimulation(p.cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		events, retired := pipesim.CoreSimulator(sim).PostMortem()
		if len(events) != obs.DefaultFlightRecDepth || len(retired) != 32 {
			t.Errorf("%s: post-mortem holds %d events and %d retirements", id, len(events), len(retired))
		}
		if got, want := tailDigest(events, retired), replayDigests[id]; got != want {
			t.Errorf("%q: %q, // digest drifted, pinned %q", id, got, want)
		}
		if p.exp == "introspect" && !hasKind(events, pipesim.EventCacheEvict) {
			t.Errorf("%s: tail holds no cache-evict event", id)
		}
		if got := sim.RecentEvents(); len(got) != len(events) || (len(got) > 0 && got[len(got)-1] != events[len(events)-1]) {
			t.Errorf("%s: RecentEvents disagrees with the post-mortem", id)
		}
	}
}

func hasKind(events []pipesim.ProbeEvent, k pipesim.ProbeKind) bool {
	for _, e := range events {
		if e.Kind == k {
			return true
		}
	}
	return false
}
