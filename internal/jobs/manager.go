package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pipesim/internal/core"
	"pipesim/internal/eventbus"
	"pipesim/internal/sweep"
)

// Admission and lookup errors. The daemon maps ErrQueueFull to HTTP 429
// and ErrDraining to 503, both with Retry-After; anything else from
// Submit is the client's spec (400).
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrDraining  = errors.New("jobs: draining, not accepting jobs")
	ErrNotFound  = errors.New("jobs: no such job")
	ErrTerminal  = errors.New("jobs: job already finished")
)

// DefaultQueueLimit bounds the admission queue when Options does not.
const DefaultQueueLimit = 16

// Hooks observe job lifecycle events for metrics and tracing. All hooks
// are optional and are called outside the manager's lock.
type Hooks struct {
	// JobStart fires when a job begins (or resumes) executing.
	JobStart func(v *View)
	// JobEnd fires exactly once when a job reaches a terminal state,
	// whether or not the job ever started executing (a job cancelled
	// while still queued, or one that failed before its checkpoint
	// replay, is terminal without a JobStart). View.Started tells the
	// two apart so gauge-style metrics stay paired with JobStart. JobEnd
	// does not fire for a job interrupted by drain — that job is still
	// live and will resume after restart. The job's terminal manifest is
	// already on disk when JobEnd runs, but Get and List report the job
	// terminal only after JobEnd returns.
	JobEnd func(v *View)
	// Point fires once per point event with one of the outcomes "ok",
	// "resumed" (served from checkpoint), "retry" or "failed".
	Point func(jobID, outcome string)
}

// Point outcome labels for Hooks.Point.
const (
	PointOK      = "ok"
	PointResumed = "resumed"
	PointRetry   = "retry"
	PointFailed  = "failed"
)

// Options configures a Manager.
type Options struct {
	// Dir is the durable state directory: one <id>.job.json manifest and
	// one <id>.ckpt.jsonl checkpoint per job. Required.
	Dir string
	// QueueLimit bounds jobs admitted but not yet finished with the
	// executor (default DefaultQueueLimit). Submissions beyond it are
	// shed with ErrQueueFull. Recovery is exempt: durable work always
	// resumes.
	QueueLimit int
	// PointWorkers is the per-daemon concurrent-points limit (default
	// one per CPU).
	PointWorkers int
	// PointTimeout is the per-point deadline (0 = none); a timed-out
	// point counts as a transient failure and is retried.
	PointTimeout time.Duration
	// Backoff schedules retries; zero value selects the defaults.
	Backoff BackoffPolicy
	// Logger receives job lifecycle records (nil = slog.Default).
	Logger *slog.Logger
	// Hooks observe lifecycle events (metrics, tracing).
	Hooks Hooks
	// InjectFault, when set, is consulted before every point attempt
	// (attempt is 1-based); a non-nil return fails the attempt. Chaos
	// and soak tests only.
	InjectFault func(jobID, pointID string, attempt int) error
	// Events, when set, receives the manager's telemetry: job lifecycle,
	// per-point outcomes, retries, backoff waits and checkpoint appends
	// (see events.go for kinds and payloads). Publishing never blocks
	// job execution.
	Events *eventbus.Bus
}

// Manager owns the durable job queue: admission, execution on the
// fault-isolated sweep runner, checkpointing, retry, recovery and drain.
type Manager struct {
	opt Options
	log *slog.Logger

	ctx  context.Context // cancelled by Close: interrupts jobs for drain
	stop context.CancelFunc
	wg   sync.WaitGroup

	draining atomic.Bool
	seq      atomic.Uint64
	startID  string

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // insertion order, for List
	pending []string // admitted job IDs awaiting the executor
	kick    chan struct{}
}

// New starts a manager over dir (created if missing) with one executor
// goroutine. Call Recover before serving to resume interrupted jobs, and
// Close to drain.
func New(opt Options) (*Manager, error) {
	if opt.Dir == "" {
		return nil, errors.New("jobs: Options.Dir is required")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating state dir: %w", err)
	}
	if opt.QueueLimit <= 0 {
		opt.QueueLimit = DefaultQueueLimit
	}
	if opt.PointWorkers <= 0 {
		opt.PointWorkers = runtime.NumCPU()
	}
	opt.Backoff = opt.Backoff.withDefaults()
	if opt.Logger == nil {
		opt.Logger = slog.Default()
	}
	// Job IDs embed a random per-process instance tag so IDs minted by
	// different daemon lifetimes over the same state dir never collide —
	// a reused ID would silently clobber the prior job's manifest and
	// append unrelated records to its checkpoint.
	var inst [8]byte
	if _, err := rand.Read(inst[:]); err != nil {
		return nil, fmt.Errorf("jobs: seeding instance id: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		opt:     opt,
		log:     opt.Logger,
		ctx:     ctx,
		stop:    stop,
		startID: hex.EncodeToString(inst[:]),
		jobs:    make(map[string]*job),
		kick:    make(chan struct{}, 1),
	}
	m.wg.Add(1)
	go m.runLoop()
	return m, nil
}

func (m *Manager) manifestPath(id string) string {
	return filepath.Join(m.opt.Dir, id+".job.json")
}

func (m *Manager) ckptPath(id string) string {
	return filepath.Join(m.opt.Dir, id+".ckpt.jsonl")
}

// Submit admits one job: the spec is validated and expanded, the manifest
// written, and the job queued. ErrQueueFull and ErrDraining report shed
// load; any other error means the spec itself is bad.
func (m *Manager) Submit(spec Spec) (*View, error) {
	if m.draining.Load() {
		return nil, ErrDraining
	}
	pts, err := expand(spec)
	if err != nil {
		return nil, err
	}
	now := time.Now().UTC()
	j := &job{
		man: Manifest{
			Schema:      ManifestSchema,
			State:       StateQueued,
			Spec:        spec,
			Created:     now,
			Updated:     now,
			TotalPoints: len(pts),
		},
		points: pts,
		done:   make(map[string]PointResult),
	}

	m.mu.Lock()
	// Admission control: the bound covers everything the executor has
	// not finished — queued and running both hold a slot — so a stalled
	// executor sheds load instead of growing an unbounded backlog.
	if m.unfinishedLocked() >= m.opt.QueueLimit {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	// Defense in depth against cross-restart ID reuse: never adopt an ID
	// that already has a manifest on disk, it would overwrite that job's
	// history.
	id := fmt.Sprintf("j-%s-%d", m.startID, m.seq.Add(1))
	for {
		if _, err := os.Stat(m.manifestPath(id)); err != nil {
			break
		}
		m.log.Warn("job id collides with an existing manifest, regenerating", "id", id)
		id = fmt.Sprintf("j-%s-%d", m.startID, m.seq.Add(1))
	}
	j.man.ID = id
	if err := m.writeManifestLocked(j); err != nil {
		m.mu.Unlock()
		return nil, err
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.pending = append(m.pending, id)
	v := j.view(false)
	ev := jobEventLocked(j)
	m.mu.Unlock()

	m.wake()
	m.publish(KindJobQueued, id, ev)
	m.log.Info("job admitted", "job", id, "points", len(pts))
	return v, nil
}

// unfinishedLocked counts jobs not yet terminal. Caller holds mu.
func (m *Manager) unfinishedLocked() int {
	n := 0
	for _, j := range m.jobs {
		if !j.man.State.Terminal() {
			n++
		}
	}
	return n
}

// QueueDepth reports admitted jobs the executor has not started.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// Get returns a snapshot of one job, including its partial results.
func (m *Manager) Get(id string) (*View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.view(true), nil
}

// List returns summary snapshots of every known job, oldest first.
func (m *Manager) List() []*View {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*View, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].view(false))
	}
	return out
}

// Cancel stops a job: a queued job goes terminal immediately, a running
// one has its context cancelled (in-flight points finish and checkpoint,
// then the job exits as cancelled).
func (m *Manager) Cancel(id string) (*View, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.man.State.Terminal() {
		v := j.view(false)
		m.mu.Unlock()
		return v, ErrTerminal
	}
	j.cancelled = true
	if j.cancel != nil {
		j.cancel() // running: the executor finalizes the state
		v := j.view(false)
		m.mu.Unlock()
		m.log.Info("job cancelled", "job", id)
		return v, nil
	}
	m.mu.Unlock()
	// Queued: finalize here so the terminal transition fires JobEnd like
	// every other; if the executor reaches the job concurrently, finalize
	// runs exactly once (it is a no-op on an already-terminal job).
	m.finalize(j, m.log.With("job", id), nil)
	m.mu.Lock()
	v := j.view(false)
	m.mu.Unlock()
	m.log.Info("job cancelled", "job", id)
	return v, nil
}

// Recover scans the state directory and resumes every job that was
// interrupted (manifest still queued/running/recovering): the job is
// marked recovering and re-queued; its checkpoint replay happens when the
// executor picks it up. Terminal jobs are loaded for listing. Recovery
// bypasses the admission bound — durable work always resumes. Returns the
// number of jobs resumed.
func (m *Manager) Recover() (int, error) {
	paths, err := filepath.Glob(filepath.Join(m.opt.Dir, "*.job.json"))
	if err != nil {
		return 0, fmt.Errorf("jobs: scanning state dir: %w", err)
	}
	resumed := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			m.log.Warn("skipping unreadable job manifest", "path", path, "err", err)
			continue
		}
		var man Manifest
		if err := json.Unmarshal(data, &man); err != nil {
			m.log.Warn("skipping corrupt job manifest", "path", path, "err", err)
			continue
		}
		if man.Schema != ManifestSchema || man.ID == "" || !man.State.valid() {
			m.log.Warn("skipping foreign or malformed job manifest", "path", path, "schema", man.Schema)
			continue
		}
		if m.manifestPath(man.ID) != path {
			m.log.Warn("skipping job manifest whose filename disagrees with its id",
				"path", path, "id", man.ID)
			continue
		}
		m.mu.Lock()
		if _, ok := m.jobs[man.ID]; ok {
			m.mu.Unlock()
			continue
		}
		j := &job{man: man, done: make(map[string]PointResult)}
		if man.State.Terminal() {
			// Load its results so GET /v1/jobs/{id} still serves them, and
			// rebuild the outcome log so an SSE stream over the finished job
			// replays its history with the original event IDs.
			recs, err := readCheckpoint(m.ckptPath(man.ID), m.log)
			if err != nil {
				m.log.Warn("loading finished job's checkpoint", "job", man.ID, "err", err)
			}
			for _, r := range recs {
				r.FromCheckpoint = true
				j.done[r.Point] = r
				j.bindLogEntryLocked(outcomeFromRecord(r), r.Seq)
			}
			j.finishLogRebuildLocked()
			m.jobs[man.ID] = j
			m.order = append(m.order, man.ID)
			m.mu.Unlock()
			continue
		}
		pts, err := expand(man.Spec)
		if err != nil {
			// The spec no longer expands (catalog drift across versions):
			// fail it durably — through finalize, so JobEnd fires — rather
			// than wedging recovery.
			m.jobs[man.ID] = j
			m.order = append(m.order, man.ID)
			m.mu.Unlock()
			m.finalize(j, m.log.With("job", man.ID), fmt.Errorf("recovery: %w", err))
			m.log.Warn("recovered job no longer expands, failing it", "job", man.ID, "err", err)
			continue
		}
		j.points = pts
		m.setStateLocked(j, StateRecovering)
		ev := jobEventLocked(j)
		m.jobs[man.ID] = j
		m.order = append(m.order, man.ID)
		m.pending = append(m.pending, man.ID)
		m.mu.Unlock()
		resumed++
		m.publish(KindJobRecovering, man.ID, ev)
		m.log.Info("recovered interrupted job", "job", man.ID, "points", len(pts))
	}
	if resumed > 0 {
		m.wake()
	}
	return resumed, nil
}

// Close drains the manager: admission stops, the running job's context is
// cancelled so in-flight points finish and checkpoint, and the executor
// exits. An interrupted job's manifest stays non-terminal, so the next
// process's Recover resumes it. The context bounds the wait.
func (m *Manager) Close(ctx context.Context) error {
	m.draining.Store(true)
	m.stop()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain deadline exceeded: %w", ctx.Err())
	}
}

// wake nudges the executor without blocking.
func (m *Manager) wake() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// runLoop is the executor: jobs run one at a time (the per-point worker
// pool inside each job is the concurrency knob) until Close.
func (m *Manager) runLoop() {
	defer m.wg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		m.runJob(j)
	}
}

// next blocks until a job is pending or the manager closes.
func (m *Manager) next() *job {
	for {
		m.mu.Lock()
		if len(m.pending) > 0 {
			id := m.pending[0]
			m.pending = m.pending[1:]
			j := m.jobs[id]
			m.mu.Unlock()
			if j != nil {
				return j
			}
			continue
		}
		m.mu.Unlock()
		select {
		case <-m.ctx.Done():
			return nil
		case <-m.kick:
		}
	}
}

// setStateLocked transitions a job and persists its manifest. Caller
// holds mu; manifest-write failures are logged, not fatal (the in-memory
// state machine continues — durability is degraded, not correctness).
func (m *Manager) setStateLocked(j *job, s State) {
	j.man.State = s
	j.man.Updated = time.Now().UTC()
	if err := m.writeManifestLocked(j); err != nil {
		m.log.Error("persisting job manifest", "job", j.man.ID, "state", s, "err", err)
	}
}

// writeManifestLocked atomically persists the manifest (temp + rename, so
// a crash never leaves a half-written manifest). Caller holds mu.
func (m *Manager) writeManifestLocked(j *job) error {
	data, err := json.MarshalIndent(j.man, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encoding manifest: %w", err)
	}
	path := m.manifestPath(j.man.ID)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("jobs: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: committing manifest: %w", err)
	}
	return nil
}

// runJob executes one job to a terminal state — or to interruption by
// drain, in which case the manifest deliberately stays non-terminal for
// the next process to recover.
func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	id := j.man.ID
	if j.man.State.Terminal() {
		m.mu.Unlock()
		return
	}
	if j.cancelled {
		m.mu.Unlock()
		m.finalize(j, m.log.With("job", id), nil)
		return
	}
	jctx, cancel := context.WithCancel(m.ctx)
	j.cancel = cancel
	m.mu.Unlock()
	defer cancel()

	log := m.log.With("job", id)

	// Replay the checkpoint: every point whose content hash is already
	// recorded is completed without re-simulating.
	recs, err := readCheckpoint(m.ckptPath(id), log)
	if err != nil {
		m.finalize(j, log, fmt.Errorf("replaying checkpoint: %w", err))
		return
	}
	byKey := make(map[string]PointResult, len(recs))
	for _, r := range recs {
		byKey[r.Key] = r
	}
	var replayed []PointOutcome
	m.mu.Lock()
	for _, p := range j.points {
		if _, ok := j.done[p.id]; ok {
			continue
		}
		if r, ok := byKey[p.key.String()]; ok {
			r.FromCheckpoint = true
			j.done[p.id] = r
			j.resumed++
			// Rebind the outcome log at the persisted index: the SSE event
			// IDs this process emits for replayed points match the ones the
			// previous process emitted, which is what makes Last-Event-ID
			// resume exact across a crash.
			j.bindLogEntryLocked(outcomeFromRecord(r), r.Seq)
		}
	}
	j.finishLogRebuildLocked()
	replayed = append(replayed, j.outcomeLog...)
	j.started = true // from here on, finalize's JobEnd has a JobStart to pair with
	m.setStateLocked(j, StateRunning)
	startView := j.view(false)
	startEv := jobEventLocked(j)
	m.mu.Unlock()

	for range replayed {
		m.point(id, PointResumed)
	}
	if h := m.opt.Hooks.JobStart; h != nil {
		h(startView)
	}
	m.publish(KindJobStart, id, startEv)
	for _, e := range replayed {
		m.publish(KindPointResumed, id, e)
	}
	log.Info("job starting", "points", startView.TotalPoints,
		"resumed", startView.ResumedPoints, "workers", m.opt.PointWorkers)

	ckpt, err := openCheckpoint(m.ckptPath(id))
	if err != nil {
		m.finalize(j, log, err)
		return
	}
	defer ckpt.Close()

	// Round-based retry: each round runs every pending point through the
	// fault-isolated sweep runner; transient failures with attempts and
	// budget to spare retry next round after an exponential, jittered
	// backoff. Retries therefore back off in lockstep per round — the
	// delay for round r is Backoff.Delay(r).
	attempts := make(map[string]int)
	var pending []point
	for _, p := range j.points {
		if _, ok := j.done[p.id]; !ok {
			pending = append(pending, p)
		}
	}
	interrupted := false
	for round := 0; len(pending) > 0 && !interrupted; round++ {
		if round > 0 {
			d := m.opt.Backoff.Delay(round-1, nil)
			m.publish(KindJobBackoff, id, BackoffEvent{
				Round: round, DelayMS: d.Milliseconds(), Pending: len(pending),
			})
			if err := sleepCtx(jctx, d); err != nil {
				break
			}
		}
		pending = m.runRound(jctx, j, ckpt, log, pending, attempts)
		interrupted = jctx.Err() != nil
	}
	m.finalize(j, log, nil)
}

// runRound executes one batch of pending points and returns the points to
// retry next round.
func (m *Manager) runRound(jctx context.Context, j *job, ckpt *checkpoint, log *slog.Logger,
	pts []point, attempts map[string]int) []point {

	id := j.man.ID
	var prMu sync.Mutex
	prs := make(map[string]PointResult, len(pts))
	// This round's attempt numbers, frozen before any worker starts. The
	// fault hook and the point bodies run on worker goroutines — and, for
	// a point the per-point timeout abandoned, possibly after the round
	// ends — so they must never read the mutable attempts map.
	tries := make(map[string]int, len(pts))
	for _, p := range pts {
		tries[p.id] = attempts[p.id] + 1
	}
	exps := make([]sweep.Experiment, 0, len(pts))
	for _, p := range pts {
		p := p
		try := tries[p.id]
		exps = append(exps, sweep.Experiment{
			ID:    p.id,
			Title: p.id,
			Run: func(ctx context.Context) (*sweep.Result, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				start := time.Now()
				pr, err := p.run(ctx)
				if err != nil {
					return nil, err
				}
				pr.Attempts = try
				pr.ElapsedS = time.Since(start).Seconds()
				// Reserve the outcome-log slot before the checkpoint write so
				// the persisted Seq always equals the index any subscriber
				// saw; a stale attempt of an already-logged point (abandoned
				// by the per-point timeout, completing after its retry) reuses
				// the first index and publishes nothing.
				m.mu.Lock()
				entry, fresh := j.logOutcomeLocked(PointOutcome{
					Point: p.id, Outcome: PointOK, Cycles: pr.Cycles,
					Valid: pr.Valid, Attempts: try, ElapsedS: pr.ElapsedS,
				})
				m.mu.Unlock()
				pr.Seq = entry.Index
				// Checkpoint here, not after the round: the record must hit
				// disk the moment the point completes, so a hard kill
				// mid-round loses only in-flight points, never finished ones.
				if err := ckpt.Append(pr); err != nil {
					// The result survives in memory; only durability of this
					// one point is lost. Keep going.
					log.Error("appending checkpoint record", "point", p.id, "err", err)
				}
				prMu.Lock()
				prs[p.id] = pr
				prMu.Unlock()
				if fresh {
					m.publish(KindPointOK, id, entry)
					m.publish(KindCkptAppend, id, CkptEvent{Point: p.id, Seq: entry.Index})
				}
				return nil, nil
			},
		})
	}
	opt := sweep.Options{
		Workers:  m.opt.PointWorkers,
		Timeout:  m.opt.PointTimeout,
		Context:  jctx,
		Events:   m.opt.Events,
		EventJob: id,
	}
	if inject := m.opt.InjectFault; inject != nil {
		opt.InjectFault = func(pointID string) error {
			return inject(id, pointID, tries[pointID])
		}
	}
	sum := sweep.RunAll(exps, opt)

	// Snapshot the round's results under the lock: a point abandoned by
	// the per-point timeout still has its goroutine running and may write
	// prs after RunAll returns. Every point that finished in time is
	// already in the map.
	prMu.Lock()
	completed := make(map[string]PointResult, len(prs))
	for pid, pr := range prs {
		completed[pid] = pr
	}
	prMu.Unlock()

	maxAttempts := j.maxAttempts()
	budget := j.retryBudget()
	var retry []point
	for i, o := range sum.Outcomes {
		p := pts[i]
		try := tries[p.id]
		if o.Err == nil {
			pr := completed[p.id]
			attempts[p.id] = try
			m.mu.Lock()
			j.done[p.id] = pr
			m.mu.Unlock()
			m.point(id, PointOK)
			continue
		}
		if jctx.Err() != nil {
			// Cancelled or draining: the unfinished points stay pending
			// for recovery; they are neither failed nor retried.
			continue
		}
		attempts[p.id] = try
		m.mu.Lock()
		canRetry := retryableErr(o.Err) && try < maxAttempts && j.retries < budget
		if canRetry {
			j.retries++
		}
		m.mu.Unlock()
		if canRetry {
			log.Warn("point failed, will retry", "point", p.id, "attempt", try, "err", o.Err)
			m.point(id, PointRetry)
			m.publish(KindPointRetry, id, PointOutcome{
				Point: p.id, Outcome: PointRetry, Attempts: try, Error: o.Err.Error(),
			})
			retry = append(retry, p)
			continue
		}
		log.Error("point failed terminally", "point", p.id, "attempts", try, "err", o.Err)
		m.mu.Lock()
		j.man.FailedPoints = append(j.man.FailedPoints, FailedPoint{
			Point:    p.id,
			Error:    o.Err.Error(),
			Attempts: try,
		})
		entry, fresh := j.logOutcomeLocked(PointOutcome{
			Point: p.id, Outcome: PointFailed, Attempts: try, Error: o.Err.Error(),
		})
		m.mu.Unlock()
		m.point(id, PointFailed)
		if fresh {
			m.publish(KindPointFailed, id, entry)
		}
	}
	return retry
}

// finalize settles the job's terminal state — or deliberately leaves it
// non-terminal when the manager is draining, so the next process recovers
// and resumes it. Every terminal transition in the manager goes through
// here, and the first caller wins: JobEnd fires exactly once per job.
//
// The terminal manifest is written before JobEnd runs, but the job turns
// terminal in memory only after JobEnd returns, so a reader that sees a
// finished job also sees everything JobEnd did (the daemon retains the
// job's trace there). Meanwhile j.ending turns away a racing finalize.
func (m *Manager) finalize(j *job, log *slog.Logger, fatal error) {
	m.mu.Lock()
	if j.ending || j.man.State.Terminal() {
		// Already finalized (a queued-job Cancel racing the executor);
		// the transition and its JobEnd fired elsewhere.
		m.mu.Unlock()
		return
	}
	j.cancel = nil
	var end State
	switch {
	case fatal != nil:
		j.man.Error = fatal.Error()
		end = StateFailed
	case j.cancelled:
		end = StateCancelled
	case m.ctx.Err() != nil:
		// Drain interrupt: keep the manifest non-terminal (running) so
		// recovery resumes it. Completed points are already checkpointed.
		m.setStateLocked(j, StateRunning)
		done := len(j.done)
		total := j.man.TotalPoints
		m.mu.Unlock()
		log.Info("job interrupted by drain; checkpointed for recovery",
			"done", done, "total", total)
		return
	case len(j.man.FailedPoints) > 0:
		j.man.Error = fmt.Sprintf("%d of %d points failed", len(j.man.FailedPoints), j.man.TotalPoints)
		end = StateFailed
	default:
		end = StateDone
	}
	live := j.man.State
	m.setStateLocked(j, end)
	v := j.view(false)
	j.man.State, j.ending = live, true
	m.mu.Unlock()
	if h := m.opt.Hooks.JobEnd; h != nil {
		h(v)
	}
	m.mu.Lock()
	j.man.State = end
	ev := jobEventLocked(j)
	m.mu.Unlock()
	m.publish(KindJobEnd, v.ID, ev)
	log.Info("job finished", "state", v.State, "completed", v.CompletedPoints,
		"failed", len(v.FailedPoints), "retries", v.RetriesUsed, "resumed", v.ResumedPoints)
}

// point invokes the per-point hook.
func (m *Manager) point(jobID, outcome string) {
	if h := m.opt.Hooks.Point; h != nil {
		h(jobID, outcome)
	}
}

// retryableErr classifies a point failure: timeouts and machine checks
// are transient (a wedged or crashed worker — the very failures this
// subsystem exists to absorb), as is anything unrecognized (injected
// faults, infrastructure errors); bounded attempts make that default
// harmless. A watchdog deadlock is a deterministic property of the
// simulated machine and never retried.
func retryableErr(err error) bool {
	var dl *core.DeadlockError
	return !errors.As(err, &dl)
}
