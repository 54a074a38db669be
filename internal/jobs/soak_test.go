package jobs

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// saveJobsDirArtifact copies the job state directory (manifests and
// checkpoints) into PIPESIM_ARTIFACT_DIR when the test fails, so CI's
// post-mortem upload carries the exact durable state the assertion was
// looking at.
func saveJobsDirArtifact(t *testing.T, name, dir string) {
	t.Cleanup(func() {
		out := os.Getenv("PIPESIM_ARTIFACT_DIR")
		if out == "" || !t.Failed() {
			return
		}
		dst := filepath.Join(out, name)
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Logf("reading jobs dir for artifact: %v", err)
			return
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Logf("copying artifact %s: %v", e.Name(), err)
				continue
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
				t.Logf("writing artifact %s: %v", e.Name(), err)
			}
		}
		t.Logf("saved job state artifact to %s", dst)
	})
}

// samePointResult compares the deterministic fields of two point results
// — identity, cycle counts and attribution. ElapsedS,
// Attempts and FromCheckpoint describe how the result was obtained and
// legitimately differ between an interrupted-and-resumed job and an
// uninterrupted one.
func samePointResult(a, b PointResult) bool {
	if a.Point != b.Point || a.Key != b.Key || a.Cycles != b.Cycles || a.Valid != b.Valid {
		return false
	}
	if (a.Attr == nil) != (b.Attr == nil) {
		return false
	}
	return a.Attr == nil || *a.Attr == *b.Attr
}

// TestJobSoakKillResume is the chaos soak test for the durable job
// subsystem: a sweep job's workers are killed mid-sweep by fault
// injection, the manager is drained (the process "crashes" gracefully),
// and a fresh manager over the same state directory recovers and resumes
// the job. The resumed job must (a) serve at least one point from the
// checkpoint instead of re-simulating it and (b) produce results
// bit-identical to an uninterrupted run of the same spec.
func TestJobSoakKillResume(t *testing.T) {
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	spec := testSpec()

	// Uninterrupted baseline in its own state dir.
	baseMgr := newTestManager(t, Options{})
	bv, err := baseMgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	baseline := waitTerminal(t, baseMgr, bv.ID)
	if baseline.State != StateDone {
		t.Fatalf("baseline job finished %s (error %q)", baseline.State, baseline.Error)
	}

	// Chaos run: one sequential worker; the first two points succeed (and
	// checkpoint), then the fault hook kills every later attempt while the
	// test drains the manager mid-sweep.
	dir := t.TempDir()
	saveJobsDirArtifact(t, "soak-jobs-dir", dir)
	var calls atomic.Int64
	var reachedOnce sync.Once
	reached := make(chan struct{})
	release := make(chan struct{})
	mA, err := New(Options{
		Dir:          dir,
		PointWorkers: 1,
		Backoff:      fastBackoff,
		Logger:       log,
		InjectFault: func(jobID, pointID string, attempt int) error {
			if calls.Add(1) <= 2 {
				return nil
			}
			reachedOnce.Do(func() { close(reached) })
			<-release
			return errors.New("injected worker kill")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mA.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the job has two points durably checkpointed and is held
	// inside the third, then drain. The kill is released only after the
	// drain began, so the interrupted round observes a cancelled context
	// and leaves the unfinished points pending for recovery.
	<-reached
	closeCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	closeErr := make(chan error, 1)
	go func() { closeErr <- mA.Close(closeCtx) }()
	for mA.ctx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-closeErr; err != nil {
		t.Fatalf("draining the chaos manager: %v", err)
	}

	// The interrupted job's durable state: a non-terminal manifest (so the
	// next process recovers it) and exactly the completed points in the
	// checkpoint.
	recs, err := readCheckpoint(filepath.Join(dir, v.ID+".ckpt.jsonl"), log)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("interrupted job checkpointed %d points, want 2", len(recs))
	}

	// "Restart": a fresh manager over the same directory recovers the job.
	mB := newTestManager(t, Options{Dir: dir})
	resumed, err := mB.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("Recover resumed %d jobs, want 1", resumed)
	}
	fin := waitTerminal(t, mB, v.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed job finished %s (error %q), want done", fin.State, fin.Error)
	}

	// At least one point (here: exactly two) was served from the
	// checkpoint rather than re-simulated.
	if fin.ResumedPoints < 1 {
		t.Error("no point was served from the checkpoint")
	}
	fromCkpt := 0
	for _, r := range fin.Results {
		if r.FromCheckpoint {
			fromCkpt++
		}
	}
	if fromCkpt != 2 {
		t.Errorf("%d results marked from_checkpoint, want 2", fromCkpt)
	}

	// Bit-identical aggregate results: every deterministic field of every
	// point matches the uninterrupted baseline, point for point.
	if len(fin.Results) != len(baseline.Results) {
		t.Fatalf("resumed job has %d results, baseline %d", len(fin.Results), len(baseline.Results))
	}
	for i := range fin.Results {
		if !samePointResult(fin.Results[i], baseline.Results[i]) {
			t.Errorf("point %d diverged after resume:\n  resumed:  %+v\n  baseline: %+v",
				i, fin.Results[i], baseline.Results[i])
		}
	}
}

// TestRecoverSkipsForeignAndTerminal asserts recovery only resumes
// genuinely interrupted jobs: finished jobs are loaded for listing (with
// their results) but not re-run, and files that are not job manifests are
// ignored.
func TestRecoverSkipsForeignAndTerminal(t *testing.T) {
	dir := t.TempDir()

	// A finished job from a "previous process".
	m1 := newTestManager(t, Options{Dir: dir})
	v, err := m1.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m1, v.ID)
	if fin.State != StateDone {
		t.Fatalf("setup job finished %s", fin.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Close m1 now so the two managers do not share the executor; the
	// t.Cleanup close becomes a no-op second drain.
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Junk that must not confuse recovery.
	if err := os.WriteFile(filepath.Join(dir, "junk.job.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "foreign.job.json"),
		[]byte(`{"schema":"other/v1","id":"foreign","state":"running"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Options{Dir: dir})
	resumed, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("Recover resumed %d jobs, want 0 (nothing was interrupted)", resumed)
	}
	got, err := m2.Get(v.ID)
	if err != nil {
		t.Fatalf("finished job lost across restart: %v", err)
	}
	if got.State != StateDone || got.CompletedPoints != 4 {
		t.Errorf("reloaded job: state %s, completed %d", got.State, got.CompletedPoints)
	}
	if len(got.Results) != 4 {
		t.Errorf("reloaded job serves %d results, want 4 from its checkpoint", len(got.Results))
	}
	for _, r := range got.Results {
		if !r.FromCheckpoint {
			t.Errorf("reloaded result %s not marked from_checkpoint", r.Point)
		}
	}
}
