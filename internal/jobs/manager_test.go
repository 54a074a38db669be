package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipesim/internal/core"
)

// testSpec is a small real grid: one machine variant, four cache sizes.
// Each point is a full Livermore benchmark run (~60ms, memoized by the
// run cache across tests in this binary).
func testSpec() Spec {
	return Spec{Grid: &GridSpec{Variants: []string{"conv"}, CacheSizes: []int{128, 256, 512, 1024}}}
}

// fastBackoff keeps test retries from sleeping for real.
var fastBackoff = BackoffPolicy{Base: time.Millisecond, Cap: 5 * time.Millisecond}

func newTestManager(t *testing.T, opt Options) *Manager {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	if opt.Logger == nil {
		opt.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opt.Backoff == (BackoffPolicy{}) {
		opt.Backoff = fastBackoff
	}
	m, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Errorf("closing manager: %v", err)
		}
	})
	return m
}

// waitTerminal polls until the job finishes and returns its final view
// with results.
func waitTerminal(t *testing.T, m *Manager, id string) *View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

func TestJobRunsToDone(t *testing.T) {
	m := newTestManager(t, Options{})
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued || v.TotalPoints != 4 {
		t.Fatalf("submitted view: %+v", v)
	}
	fin := waitTerminal(t, m, v.ID)
	if fin.State != StateDone {
		t.Fatalf("state %s (error %q), want done", fin.State, fin.Error)
	}
	if fin.CompletedPoints != 4 || len(fin.Results) != 4 {
		t.Fatalf("completed %d, results %d, want 4", fin.CompletedPoints, len(fin.Results))
	}
	for i, r := range fin.Results {
		if r.Key == "" || r.Point == "" || !r.Valid || r.Cycles == 0 || r.Attr == nil {
			t.Errorf("result %d incomplete: %+v", i, r)
		}
	}
	// Results come back in expansion order.
	want := []string{"conv/128", "conv/256", "conv/512", "conv/1024"}
	for i, r := range fin.Results {
		if r.Point != want[i] {
			t.Errorf("result %d is %s, want %s", i, r.Point, want[i])
		}
	}

	// The durable record agrees: terminal manifest plus one checkpoint
	// line per point.
	data, err := os.ReadFile(m.manifestPath(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.State != StateDone || man.Schema != ManifestSchema || man.ID != v.ID {
		t.Errorf("manifest on disk: %+v", man)
	}
	recs, err := readCheckpoint(m.ckptPath(v.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Errorf("checkpoint has %d records, want 4", len(recs))
	}
}

// TestJobRetrySucceeds injects one transient failure: the point must be
// retried with backoff and the job still finish clean.
func TestJobRetrySucceeds(t *testing.T) {
	m := newTestManager(t, Options{
		InjectFault: func(jobID, pointID string, attempt int) error {
			if pointID == "conv/256" && attempt == 1 {
				return errors.New("injected transient fault")
			}
			return nil
		},
	})
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, v.ID)
	if fin.State != StateDone {
		t.Fatalf("state %s (error %q), want done despite the transient fault", fin.State, fin.Error)
	}
	if fin.RetriesUsed < 1 {
		t.Errorf("retries used %d, want >= 1", fin.RetriesUsed)
	}
	for _, r := range fin.Results {
		if r.Point == "conv/256" && r.Attempts != 2 {
			t.Errorf("conv/256 took %d attempts, want 2", r.Attempts)
		}
	}
}

// TestJobFailsPartial injects a permanent failure on one point: the job
// fails, but every other point's result is still delivered.
func TestJobFailsPartial(t *testing.T) {
	m := newTestManager(t, Options{
		InjectFault: func(jobID, pointID string, attempt int) error {
			if pointID == "conv/512" {
				return errors.New("injected permanent fault")
			}
			return nil
		},
	})
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, v.ID)
	if fin.State != StateFailed {
		t.Fatalf("state %s, want failed", fin.State)
	}
	if len(fin.FailedPoints) != 1 || fin.FailedPoints[0].Point != "conv/512" {
		t.Fatalf("failed points: %+v", fin.FailedPoints)
	}
	if got := fin.FailedPoints[0].Attempts; got != DefaultMaxAttempts {
		t.Errorf("failed point burned %d attempts, want %d", got, DefaultMaxAttempts)
	}
	if fin.CompletedPoints != 3 || len(fin.Results) != 3 {
		t.Errorf("want the 3 healthy points' results, got %d", len(fin.Results))
	}
	if fin.Error == "" {
		t.Error("failed job must carry an error summary")
	}
}

// blockGate blocks the executor inside a chosen point attempt so tests
// can hold jobs in running/queued states deterministically.
type blockGate struct {
	reached chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockGate() *blockGate {
	return &blockGate{reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *blockGate) inject(jobID, pointID string, attempt int) error {
	g.once.Do(func() { close(g.reached) })
	<-g.release
	return nil
}

func (g *blockGate) open() {
	select {
	case <-g.release:
	default:
		close(g.release)
	}
}

// TestAdmissionControl fills the bounded queue and asserts overflow is
// shed with ErrQueueFull while every admitted job still completes.
func TestAdmissionControl(t *testing.T) {
	gate := newBlockGate()
	defer gate.open()
	m := newTestManager(t, Options{
		QueueLimit:  2,
		InjectFault: gate.inject,
	})

	// First job starts executing and blocks on the gate; second sits in
	// the queue. Both hold admission slots.
	v1, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-gate.reached
	v2, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}

	// The queue is at its bound: the next submission is shed.
	if _, err := m.Submit(testSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if d := m.QueueDepth(); d != 1 {
		t.Errorf("queue depth %d, want 1 (one job waiting behind the runner)", d)
	}

	// Shed load is load the system refused, not load it lost: release the
	// gate and both admitted jobs run to completion.
	gate.open()
	for _, id := range []string{v1.ID, v2.ID} {
		if fin := waitTerminal(t, m, id); fin.State != StateDone {
			t.Errorf("job %s finished %s (error %q), want done", id, fin.State, fin.Error)
		}
	}

	// With the queue drained, admission opens again.
	v4, err := m.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	if fin := waitTerminal(t, m, v4.ID); fin.State != StateDone {
		t.Errorf("post-drain job finished %s, want done", fin.State)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	gate := newBlockGate()
	defer gate.open()
	m := newTestManager(t, Options{InjectFault: gate.inject})

	running, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-gate.reached
	queued, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}

	// A queued job cancels immediately.
	v, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCancelled {
		t.Fatalf("queued job state after cancel: %s", v.State)
	}

	// A running job cancels once its in-flight points settle.
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	gate.open()
	if fin := waitTerminal(t, m, running.ID); fin.State != StateCancelled {
		t.Errorf("running job state after cancel: %s", fin.State)
	}

	// Cancelling again is a conflict; cancelling nonsense is not found.
	if _, err := m.Cancel(running.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("re-cancel: err = %v, want ErrTerminal", err)
	}
	if _, err := m.Cancel("j-nope-1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel unknown: err = %v, want ErrNotFound", err)
	}
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	m := newTestManager(t, Options{})
	cases := []Spec{
		{}, // no work at all
		{Experiments: []string{"no-such-experiment"}},
		{Grid: &GridSpec{Variants: []string{"no-such-variant"}}},
		{Grid: &GridSpec{CacheSizes: []int{-1}}},
		{Grid: &GridSpec{}, MaxAttempts: -1},
	}
	for i, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("case %d: bad spec %+v was admitted", i, spec)
		} else if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrDraining) {
			t.Errorf("case %d: bad spec misreported as shed load: %v", i, err)
		}
	}
	if got := len(m.List()); got != 0 {
		t.Errorf("%d jobs registered from rejected specs", got)
	}
}

func TestListOrder(t *testing.T) {
	gate := newBlockGate()
	defer gate.open()
	m := newTestManager(t, Options{QueueLimit: 8, InjectFault: gate.inject})
	var ids []string
	for i := 0; i < 3; i++ {
		v, err := m.Submit(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	vs := m.List()
	if len(vs) != 3 {
		t.Fatalf("List returned %d jobs, want 3", len(vs))
	}
	for i, v := range vs {
		if v.ID != ids[i] {
			t.Errorf("List[%d] = %s, want %s (oldest first)", i, v.ID, ids[i])
		}
	}
	gate.open()
}

func TestDrainingRejectsSubmit(t *testing.T) {
	dir := t.TempDir()
	log := slog.New(slog.NewTextHandler(io.Discard, nil))
	m, err := New(Options{Dir: dir, Logger: log, Backoff: fastBackoff})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after Close: err = %v, want ErrDraining", err)
	}
}

func TestRetryableErr(t *testing.T) {
	if retryableErr(&core.DeadlockError{}) {
		t.Error("a watchdog deadlock is deterministic and must not be retried")
	}
	if !retryableErr(errors.New("injected infrastructure fault")) {
		t.Error("unrecognized errors are transient until attempts run out")
	}
	if !retryableErr(fmt.Errorf("wrapped: %w", context.DeadlineExceeded)) {
		t.Error("timeouts are the transient failure this subsystem absorbs")
	}
}

// TestHooksPairing asserts the lifecycle hooks stay balanced on every
// path: JobEnd fires exactly once per terminal transition — including a
// job cancelled while still queued, which never fired JobStart — and
// View.Started lets a gauge incremented on JobStart pair its decrements
// so it can never go negative.
func TestHooksPairing(t *testing.T) {
	type event struct {
		start   bool
		started bool
		state   State
		id      string
	}
	var evMu sync.Mutex
	var events []event
	gate := newBlockGate()
	defer gate.open()
	m := newTestManager(t, Options{
		InjectFault: gate.inject,
		Hooks: Hooks{
			JobStart: func(v *View) {
				evMu.Lock()
				events = append(events, event{start: true, started: v.Started, id: v.ID})
				evMu.Unlock()
			},
			JobEnd: func(v *View) {
				evMu.Lock()
				events = append(events, event{started: v.Started, state: v.State, id: v.ID})
				evMu.Unlock()
			},
		},
	})

	running, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-gate.reached
	queued, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the queued job: it goes terminal without ever starting.
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	gate.open()
	if fin := waitTerminal(t, m, running.ID); fin.State != StateDone {
		t.Fatalf("running job finished %s, want done", fin.State)
	}

	evMu.Lock()
	defer evMu.Unlock()
	counts := map[string]struct{ starts, ends int }{}
	gauge := 0
	for _, e := range events {
		c := counts[e.id]
		if e.start {
			c.starts++
			gauge++
		} else {
			c.ends++
			if e.started {
				gauge--
			}
		}
		counts[e.id] = c
		if gauge < 0 {
			t.Fatalf("active gauge went negative: events %+v", events)
		}
		if !e.start && e.id == queued.ID {
			if e.started {
				t.Error("cancelled-while-queued job reported Started=true at JobEnd")
			}
			if e.state != StateCancelled {
				t.Errorf("queued job ended %s, want cancelled", e.state)
			}
		}
	}
	if gauge != 0 {
		t.Errorf("active gauge settled at %d, want 0 (events %+v)", gauge, events)
	}
	if c := counts[running.ID]; c.starts != 1 || c.ends != 1 {
		t.Errorf("running job fired %d starts / %d ends, want 1/1", c.starts, c.ends)
	}
	if c := counts[queued.ID]; c.starts != 0 || c.ends != 1 {
		t.Errorf("queued-cancelled job fired %d starts / %d ends, want 0/1", c.starts, c.ends)
	}
}

// TestTerminalVisibleOnlyAfterJobEnd blocks JobEnd and polls the job
// meanwhile: the terminal manifest is already durable, but no reader may
// see the job terminal until JobEnd has returned. The daemon retains the
// job's trace in JobEnd, so a poller that sees "done" must find it.
func TestTerminalVisibleOnlyAfterJobEnd(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var returned atomic.Bool
	m := newTestManager(t, Options{Hooks: Hooks{
		JobEnd: func(v *View) {
			close(entered)
			<-release
			returned.Store(true)
		},
	}})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock) // runs before the manager's drain
	v, err := m.Submit(Spec{Grid: &GridSpec{Variants: []string{"conv"}, CacheSizes: []int{128}}})
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		got, err := m.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		list := m.List()
		if returned.Load() {
			return
		}
		if got.State.Terminal() {
			t.Fatalf("Get reported %s before JobEnd returned", got.State)
		}
		if st := list[len(list)-1].State; st.Terminal() {
			t.Fatalf("List reported %s before JobEnd returned", st)
		}
	}
	deadline := time.After(60 * time.Second)
	for waiting := true; waiting; {
		select {
		case <-entered:
			waiting = false
		case <-deadline:
			t.Fatal("JobEnd never fired")
		default:
			check()
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < 20; i++ {
		check()
		time.Sleep(time.Millisecond)
	}
	raw, err := os.ReadFile(m.manifestPath(v.ID))
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if man.State != StateDone {
		t.Errorf("manifest on disk is %s while JobEnd runs, want done", man.State)
	}
	unblock()
	if fin := waitTerminal(t, m, v.ID); fin.State != StateDone {
		t.Errorf("job finished %s, want done", fin.State)
	}
}

// TestSubmitSkipsExistingManifestID plants a manifest where the next
// submission would land and asserts the manager regenerates the ID
// instead of clobbering the on-disk job history.
func TestSubmitSkipsExistingManifestID(t *testing.T) {
	m := newTestManager(t, Options{})
	next := fmt.Sprintf("j-%s-%d", m.startID, m.seq.Load()+1)
	planted := m.manifestPath(next)
	if err := os.WriteFile(planted, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == next {
		t.Fatalf("Submit reused ID %s that already had a manifest on disk", next)
	}
	data, err := os.ReadFile(planted)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{}" {
		t.Errorf("planted manifest was clobbered: %q", data)
	}
}

// TestTimedOutPointRetriesWithoutCrash wedges one point past the
// per-point deadline: the sweep runner abandons its goroutine (which may
// finish later, concurrently with the manager's bookkeeping — run under
// -race this exercises that synchronization) and the manager must retry
// the point and finish the job cleanly.
func TestTimedOutPointRetriesWithoutCrash(t *testing.T) {
	// Warm the run cache so every point is memoized and far faster than
	// the deadline; only the injected wedge exceeds it.
	warm := newTestManager(t, Options{})
	wv, err := warm.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, warm, wv.ID); fin.State != StateDone {
		t.Fatalf("warm-up job finished %s, want done", fin.State)
	}

	m := newTestManager(t, Options{
		PointTimeout: 100 * time.Millisecond,
		InjectFault: func(jobID, pointID string, attempt int) error {
			if pointID == "conv/512" && attempt == 1 {
				time.Sleep(400 * time.Millisecond) // wedge past the deadline
			}
			return nil
		},
	})
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, v.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (error %q), want done after retrying the wedged point", fin.State, fin.Error)
	}
	if fin.RetriesUsed < 1 {
		t.Error("the timed-out point should have burned a retry")
	}
	for _, r := range fin.Results {
		if r.Point == "conv/512" && r.Attempts != 2 {
			t.Errorf("wedged point recorded %d attempts, want 2", r.Attempts)
		}
	}
	// Let the abandoned goroutine run its course before the test tears
	// the manager down, so the race detector sees both sides.
	time.Sleep(500 * time.Millisecond)
}
