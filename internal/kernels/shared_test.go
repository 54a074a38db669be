package kernels_test

import (
	"encoding/hex"
	"slices"
	"testing"

	"pipesim/internal/kernels"
)

// livermoreFingerprint is the benchmark image's content hash, recorded
// before the fingerprint hashed whole segments. Archived runs are keyed by
// it, so it must never change while the benchmark's words do not.
const livermoreFingerprint = "838f3dfb9110c48c11bb298da69d9d3a1cec08c633160d16ecdc23543431707d"

func TestLivermoreFingerprintPinned(t *testing.T) {
	fresh, _, err := kernels.Program()
	if err != nil {
		t.Fatal(err)
	}
	shared, err := kernels.Benchmark()
	if err != nil {
		t.Fatal(err)
	}
	for name, fp := range map[string][32]byte{"fresh": fresh.Fingerprint(), "shared": shared.Fingerprint()} {
		if got := hex.EncodeToString(fp[:]); got != livermoreFingerprint {
			t.Errorf("%s benchmark fingerprint %s, want %s", name, got, livermoreFingerprint)
		}
	}
}

// The shared images are the images a fresh build produces, built once.
func TestSharedImagesMatchFreshBuilds(t *testing.T) {
	fresh, _, err := kernels.Program()
	if err != nil {
		t.Fatal(err)
	}
	shared, err := kernels.Benchmark()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := kernels.Benchmark(); again != shared {
		t.Error("Benchmark built a second image")
	}
	if !slices.Equal(shared.Text, fresh.Text) || !slices.Equal(shared.Data, fresh.Data) || shared.Entry != fresh.Entry {
		t.Error("shared benchmark image differs from a fresh build")
	}
	for i := 1; i <= 14; i++ {
		fresh, err := kernels.KernelProgram(i)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := kernels.Kernel(i)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := kernels.Kernel(i); again != shared {
			t.Errorf("Kernel(%d) built a second image", i)
		}
		if shared.Fingerprint() != fresh.Fingerprint() {
			t.Errorf("Kernel(%d) differs from KernelProgram(%d)", i, i)
		}
	}
	for _, bad := range []int{0, 15} {
		if _, err := kernels.Kernel(bad); err == nil {
			t.Errorf("Kernel(%d) accepted", bad)
		}
	}
}

func TestSharedImageLookupAllocs(t *testing.T) {
	if _, err := kernels.Benchmark(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { kernels.Benchmark() }); n != 0 {
		t.Errorf("warm Benchmark: %.0f allocations, want 0", n)
	}
}
