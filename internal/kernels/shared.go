package kernels

import (
	"fmt"
	"sync"

	"pipesim/internal/program"
)

// Shared images. The benchmark and its single-loop programs are fixed, and
// a linked image is never mutated, so one image of each serves every caller
// in the process: the sweep, the job runner, the CLIs and every daemon
// request run and fingerprint the same image. Its derived state (the
// predecoded text and the content fingerprint) is computed when the image
// is built, so a warm lookup does no work and allocates nothing. Callers
// must treat the returned images as read-only; tests that need a private
// image build one with Program or KernelProgram.
var (
	benchmark = sync.OnceValues(func() (*program.Image, error) {
		img, _, err := Program()
		return sealed(img, err)
	})
	loops = func() (fs [len(tableI)]func() (*program.Image, error)) {
		for i := range fs {
			fs[i] = sync.OnceValues(func() (*program.Image, error) {
				return sealed(KernelProgram(i + 1))
			})
		}
		return fs
	}()
)

// Benchmark returns the process-wide Livermore benchmark image: Program's
// image, built on first use. It is safe for concurrent use.
func Benchmark() (*program.Image, error) { return benchmark() }

// Kernel returns the process-wide image of Livermore loop index (1..14) as
// a standalone program: KernelProgram's image, built on first use. It is
// safe for concurrent use.
func Kernel(index int) (*program.Image, error) {
	if index < 1 || index > len(loops) {
		return nil, fmt.Errorf("kernels: loop %d out of range 1..%d", index, len(loops))
	}
	return loops[index-1]()
}

// sealed computes an image's derived state up front, so no simulation or
// cache lookup pays for it later.
func sealed(img *program.Image, err error) (*program.Image, error) {
	if err != nil {
		return nil, err
	}
	img.Decoded()
	img.Fingerprint()
	return img, nil
}
