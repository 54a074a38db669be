// Package jobs is the durable sweep-job subsystem behind the daemon's
// POST /v1/jobs API. A job expands a declarative spec into experiment
// points, executes them on the fault-isolated sweep runner with per-point
// retry and exponential backoff, and appends every completed point to a
// per-job JSONL checkpoint keyed by the runcache content hash — so a
// daemon crash or drain loses at most the points in flight, and a
// restarted manager resumes exactly the missing ones. The checkpoint is
// the job's outcome index (which points finished, their outcome-log
// sequence numbers and per-point summaries); simulation results persist
// in the run store behind runcache.Default, not here. Admission is
// bounded: a full queue sheds load (HTTP 429) before the hot loop starves.
package jobs

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"pipesim/internal/core"
	"pipesim/internal/program"
	"pipesim/internal/runcache"
	"pipesim/internal/sweep"
)

// State is a job's position in its lifecycle:
//
//	queued → running → done | failed | cancelled
//	            ↑
//	       recovering   (a restarted daemon found the job interrupted)
//
// done means every point succeeded; failed means the job finished but
// some points exhausted their retry budget (the results of the points
// that did succeed are still served — fail partial, not total).
type State string

// Job lifecycle states.
const (
	StateQueued     State = "queued"
	StateRunning    State = "running"
	StateRecovering State = "recovering"
	StateDone       State = "done"
	StateFailed     State = "failed"
	StateCancelled  State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// valid reports whether s is a known state (manifests are read back from
// disk, where anything may sit).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateRecovering, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Spec declares a job's work: catalog experiments, a figure-style grid,
// or both. The zero value is invalid — at least one source of points is
// required.
type Spec struct {
	// Experiments lists sweep catalog experiment IDs; each is one point.
	Experiments []string `json:"experiments,omitempty"`
	// Grid expands into one point per (variant, cache size) cell.
	Grid *GridSpec `json:"grid,omitempty"`
	// MaxAttempts bounds tries per point (default DefaultMaxAttempts).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// RetryBudget bounds total retries across the whole job (default
	// 2 × point count). Exhausting it fails every still-pending retry.
	RetryBudget int `json:"retry_budget,omitempty"`
}

// GridSpec is a cache-size sweep grid: the paper's Figures 4-6 shape.
type GridSpec struct {
	// Variants names the machines ("conv" or Table II names); empty
	// selects all of them.
	Variants []string `json:"variants,omitempty"`
	// CacheSizes is the x axis; empty selects the figures' sizes.
	CacheSizes []int `json:"cache_sizes,omitempty"`
	// AccessTime is the memory access time T (default 6).
	AccessTime int `json:"access_time,omitempty"`
	// BusBytes is the input bus width (default 8).
	BusBytes int `json:"bus_bytes,omitempty"`
	// Pipelined selects the pipelined memory system.
	Pipelined bool `json:"pipelined,omitempty"`
	// NoPrefetch disables true prefetch (the original-chip policy).
	NoPrefetch bool `json:"no_prefetch,omitempty"`
}

// DefaultMaxAttempts is the per-point try bound when the spec does not
// set one: one initial run plus two retries.
const DefaultMaxAttempts = 3

// maxJobPoints bounds a single job's expansion so one request cannot
// queue unbounded work.
const maxJobPoints = 4096

// withDefaults resolves the grid's zero fields.
func (g GridSpec) withDefaults() GridSpec {
	if len(g.Variants) == 0 {
		g.Variants = sweep.GridVariants()
	}
	if len(g.CacheSizes) == 0 {
		g.CacheSizes = append([]int(nil), sweep.CacheSizes...)
	}
	if g.AccessTime == 0 {
		g.AccessTime = 6
	}
	if g.BusBytes == 0 {
		g.BusBytes = 8
	}
	return g
}

// point is one unit of job work: a stable in-job ID, the content-hash
// identity its checkpoint record carries, and the body that produces the
// result. Invalid grid cells carry run bodies that record without
// simulating.
type point struct {
	id  string
	key runcache.Key
	run func(ctx context.Context) (PointResult, error)
}

// expand resolves the spec into its ordered point list. It validates
// experiment IDs and grid parameters, and needs the shared benchmark
// image (to fingerprint point identities), so the first call may pay the
// image build; the daemon warms it at boot.
func expand(spec Spec) ([]point, error) {
	if len(spec.Experiments) == 0 && spec.Grid == nil {
		return nil, fmt.Errorf("jobs: empty spec: name experiments or a grid")
	}
	if spec.MaxAttempts < 0 || spec.RetryBudget < 0 {
		return nil, fmt.Errorf("jobs: max_attempts and retry_budget must be >= 0")
	}
	img, err := sweep.BenchmarkImage()
	if err != nil {
		return nil, err
	}
	fp := img.Fingerprint()
	var pts []point
	seen := map[string]bool{}
	add := func(p point) error {
		if seen[p.id] {
			return fmt.Errorf("jobs: duplicate point %q", p.id)
		}
		seen[p.id] = true
		pts = append(pts, p)
		return nil
	}
	for _, id := range spec.Experiments {
		e, ok := sweep.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("jobs: unknown experiment %q (GET /v1/experiments lists them)", id)
		}
		if err := add(catalogPoint(e, fp)); err != nil {
			return nil, err
		}
	}
	if spec.Grid != nil {
		g := spec.Grid.withDefaults()
		for _, size := range g.CacheSizes {
			if size <= 0 {
				return nil, fmt.Errorf("jobs: bad grid cache size %d", size)
			}
		}
		for _, variant := range g.Variants {
			for _, size := range g.CacheSizes {
				cfg, valid, err := sweep.GridConfig(variant, size, g.AccessTime, g.BusBytes, g.Pipelined, !g.NoPrefetch)
				if err != nil {
					return nil, err
				}
				id := fmt.Sprintf("%s/%d", variant, size)
				if err := add(gridPoint(id, cfg, valid, img)); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(pts) > maxJobPoints {
		return nil, fmt.Errorf("jobs: spec expands to %d points (max %d)", len(pts), maxJobPoints)
	}
	return pts, nil
}

// gridPoint is one (variant, cache size) cell. Its checkpoint key is the
// runcache key of the exact configuration, so the identity is shared with
// the in-memory memo and stable across processes.
func gridPoint(id string, cfg core.Config, valid bool, img *program.Image) point {
	k := runcache.KeyFor(cfg, img.Fingerprint())
	return point{id: id, key: k, run: func(ctx context.Context) (PointResult, error) {
		pr := PointResult{Point: id, Key: k.String()}
		if !valid {
			return pr, nil
		}
		st, err := runcache.Default.RunCtx(ctx, cfg, img)
		if err != nil {
			return pr, err
		}
		pr.Cycles = st.Cycles
		pr.Valid = true
		attr := sweep.StatsTotals(st)
		pr.Attr = &attr
		return pr, nil
	}}
}

// catalogPoint wraps one catalog experiment as a job point. Like a grid
// point it reports key, cycles, validity and attribution; the
// experiment's table is served by GET /v1/sweep?exp=… from the caches.
func catalogPoint(e sweep.Experiment, fp [sha256.Size]byte) point {
	k := catalogKey(e.ID, fp)
	return point{id: "exp:" + e.ID, key: k, run: func(ctx context.Context) (PointResult, error) {
		pr := PointResult{Point: "exp:" + e.ID, Key: k.String()}
		res, err := e.Run(ctx)
		if err != nil {
			return pr, err
		}
		for _, s := range res.Series {
			for _, p := range s.Points {
				if p.Valid {
					pr.Cycles += p.Cycles
				}
			}
		}
		pr.Valid = true
		if t, ok := sweep.ResultTotals(res); ok {
			pr.Attr = &t
		}
		return pr, nil
	}}
}

// catalogKey is the checkpoint identity of a catalog experiment run over
// the image with the given fingerprint: a sha256 content hash in the same
// key space the grid points draw from runcache.KeyFor (the leading
// version tag keeps the two families from colliding).
func catalogKey(expID string, imageFP [sha256.Size]byte) runcache.Key {
	h := sha256.New()
	h.Write([]byte("pipesim-job-point/v1\x00"))
	h.Write([]byte(expID))
	h.Write([]byte{0})
	h.Write(imageFP[:])
	var k runcache.Key
	h.Sum(k[:0])
	return k
}

// ManifestSchema identifies the on-disk job manifest layout.
const ManifestSchema = "pipesim-job/v1"

// FailedPoint is a point that exhausted its retry budget; the job fails
// partial, not total, and this records why.
type FailedPoint struct {
	Point    string `json:"point"`
	Error    string `json:"error"`
	Attempts int    `json:"attempts"`
}

// Manifest is the durable job record, written atomically on every state
// transition. Together with the checkpoint file it is everything a
// restarted daemon needs to resume the job.
type Manifest struct {
	Schema       string        `json:"schema"`
	ID           string        `json:"id"`
	State        State         `json:"state"`
	Spec         Spec          `json:"spec"`
	Created      time.Time     `json:"created"`
	Updated      time.Time     `json:"updated"`
	TotalPoints  int           `json:"total_points"`
	FailedPoints []FailedPoint `json:"failed_points,omitempty"`
	Error        string        `json:"error,omitempty"`
}

// View is a job snapshot for the API: the manifest plus live progress.
// Results holds the completed points in expansion order (partial while
// running).
type View struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Started reports whether this process began executing the job, i.e.
	// whether Hooks.JobStart fired for it. Hooks.JobEnd consumers use it
	// to keep gauge-style metrics paired; it is process-local state, not
	// part of the HTTP API.
	Started         bool          `json:"-"`
	Created         time.Time     `json:"created"`
	Updated         time.Time     `json:"updated"`
	TotalPoints     int           `json:"total_points"`
	CompletedPoints int           `json:"completed_points"`
	ResumedPoints   int           `json:"resumed_points"`
	RetriesUsed     int           `json:"retries_used"`
	FailedPoints    []FailedPoint `json:"failed_points,omitempty"`
	Error           string        `json:"error,omitempty"`
	Results         []PointResult `json:"results,omitempty"`
}

// job is the in-memory runtime state; the manager guards it with its own
// lock.
type job struct {
	man       Manifest
	points    []point
	done      map[string]PointResult // by point ID
	resumed   int                    // points replayed from checkpoint
	retries   int                    // total retries spent
	started   bool                   // this process fired JobStart for it
	cancelled bool
	ending    bool               // finalize claimed it; terminal once JobEnd returns
	cancel    context.CancelFunc // non-nil while running

	// The outcome log (see events.go): terminal point outcomes in index
	// order, the ledger behind exactly-once SSE delivery.
	outcomeLog []PointOutcome
	logged     map[string]int // point ID -> log index
	nextIdx    int            // next log index to assign (1-based)
}

// view snapshots the job. Caller holds the manager lock.
func (j *job) view(withResults bool) *View {
	v := &View{
		ID:              j.man.ID,
		State:           j.man.State,
		Started:         j.started,
		Created:         j.man.Created,
		Updated:         j.man.Updated,
		TotalPoints:     j.man.TotalPoints,
		CompletedPoints: len(j.done),
		ResumedPoints:   j.resumed,
		RetriesUsed:     j.retries,
		FailedPoints:    append([]FailedPoint(nil), j.man.FailedPoints...),
		Error:           j.man.Error,
	}
	if withResults {
		if len(j.points) > 0 {
			for _, p := range j.points {
				if r, ok := j.done[p.id]; ok {
					v.Results = append(v.Results, r)
				}
			}
		} else {
			// A terminal job loaded from disk keeps no expansion; order
			// the replayed results by point ID for stability.
			for _, r := range j.done {
				v.Results = append(v.Results, r)
			}
			sort.Slice(v.Results, func(a, b int) bool { return v.Results[a].Point < v.Results[b].Point })
		}
	}
	return v
}

// maxAttempts resolves the job's per-point try bound.
func (j *job) maxAttempts() int {
	if j.man.Spec.MaxAttempts > 0 {
		return j.man.Spec.MaxAttempts
	}
	return DefaultMaxAttempts
}

// retryBudget resolves the job's total retry budget.
func (j *job) retryBudget() int {
	if j.man.Spec.RetryBudget > 0 {
		return j.man.Spec.RetryBudget
	}
	return 2 * j.man.TotalPoints
}
