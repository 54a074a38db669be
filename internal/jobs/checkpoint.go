// Checkpoint files make sweep jobs durable. A job's checkpoint is its
// outcome index: every completed experiment point is appended to a
// per-job JSONL file as soon as it finishes, keyed by the runcache sha256
// content hash of the machine it simulated, with the outcome-log sequence
// number that anchors SSE event IDs and the per-point summary a restarted
// daemon serves for a terminal job. Simulation results themselves persist
// only in the run store (internal/runstore), when one is installed. A
// daemon that dies mid-job replays the file on restart and re-simulates
// only the missing points. Appends are single-write plus fsync, so a
// crash can at worst leave the final record without its newline — a torn
// tail the reader discards rather than failing the whole recovery, and
// that reopening for append cuts off before the next record lands.
package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"

	"pipesim/internal/sweep"
)

// PointResult is one completed experiment point: the unit of checkpoint
// durability and of the job API's partial results. Key, Cycles, Valid and
// Attr are deterministic for a given machine (the soak test
// asserts an interrupted-and-resumed job reproduces them bit-identically);
// ElapsedS, Attempts and FromCheckpoint describe how this process obtained
// the result and are excluded from that comparison.
type PointResult struct {
	// Point is the job-scoped point ID ("conv/128", "exp:fig5b").
	Point string `json:"point"`
	// Key is the sha256 content hash identifying the simulated machine
	// (runcache.Key hex for grid points; a derived content hash for
	// catalog experiments).
	Key string `json:"key"`
	// Cycles is the point's total simulated cycle count (summed over
	// series for catalog experiments).
	Cycles uint64 `json:"cycles"`
	// Valid is false for cells the figures leave blank (cache smaller
	// than the line size); such points are recorded without simulating.
	Valid bool `json:"valid"`
	// Attr is the point's exact cycle attribution, when it carried
	// statistics.
	Attr *sweep.BucketTotals `json:"attr,omitempty"`
	// ElapsedS is the wall-clock seconds this attempt took.
	ElapsedS float64 `json:"elapsed_s"`
	// Attempts is how many tries the point needed (1 = first try).
	Attempts int `json:"attempts"`
	// FromCheckpoint marks a result replayed from disk rather than
	// simulated by this process.
	FromCheckpoint bool `json:"from_checkpoint,omitempty"`
	// Seq is the point's index in the job's outcome log (events.go),
	// persisted so a restarted manager rebinds the same SSE event IDs to
	// the same points — the anchor for Last-Event-ID resume across
	// crashes. Zero in records written before the event layer existed.
	Seq int `json:"seq,omitempty"`
}

// checkpoint is an append-only JSONL file of completed point results.
// Append is safe for concurrent use: parallel point workers checkpoint
// each result the moment it completes.
type checkpoint struct {
	path string
	mu   sync.Mutex
	f    *os.File
}

// openCheckpoint opens (creating if needed) the checkpoint file for
// appending. It first truncates the file to just after its last newline:
// a torn tail left by a crash would otherwise merge with the next record
// into one line the reader discards, losing a record that was complete.
func openCheckpoint(path string) (*checkpoint, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening checkpoint: %w", err)
	}
	data, err := io.ReadAll(f)
	if keep := int64(bytes.LastIndexByte(data, '\n') + 1); err == nil && keep < int64(len(data)) {
		err = f.Truncate(keep)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: opening checkpoint: %w", err)
	}
	return &checkpoint{path: path, f: f}, nil
}

// Append durably records one completed point: a single write of the JSON
// line followed by fsync, so the record either exists completely or (after
// a crash mid-write) is a trailing fragment readCheckpoint discards.
func (c *checkpoint) Append(r PointResult) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("jobs: encoding checkpoint record: %w", err)
	}
	b = append(b, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.f.Write(b); err != nil {
		return fmt.Errorf("jobs: appending checkpoint record: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("jobs: syncing checkpoint: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (c *checkpoint) Close() error { return c.f.Close() }

// readCheckpoint replays a checkpoint file. A missing file is an empty
// checkpoint. A truncated or corrupt record — a crash mid-append — is
// discarded with a logged warning instead of failing the whole recovery:
// the worst case is re-simulating the one point whose record was lost.
// A tail without its newline is torn even when it parses, since
// openCheckpoint cuts it off. Records missing their identity key are
// likewise dropped.
func readCheckpoint(path string, log *slog.Logger) ([]PointResult, error) {
	if log == nil {
		log = slog.Default()
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: reading checkpoint: %w", err)
	}
	var out []PointResult
	lines := bytes.Split(data, []byte{'\n'})
	for i, line := range lines {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var r PointResult
		err := json.Unmarshal(line, &r)
		if err == nil && i == len(lines)-1 {
			err = errors.New("no trailing newline")
		}
		if err != nil {
			log.Warn("discarding corrupt checkpoint record (crash mid-write?)",
				"path", path, "line", i+1, "err", err)
			continue
		}
		if r.Key == "" || r.Point == "" {
			log.Warn("discarding checkpoint record without identity",
				"path", path, "line", i+1)
			continue
		}
		out = append(out, r)
	}
	return out, nil
}
