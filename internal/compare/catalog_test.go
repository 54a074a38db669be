package compare_test

import (
	"fmt"
	"strings"
	"testing"

	"pipesim/internal/compare"
)

func sweepJSON(points string) []byte {
	return []byte(`{
        "schema": "pipesim-sweep/v1",
        "outcomes": [` + points + `]
    }`)
}

const goldenOutcome = `{
        "id": "figure-4", "ok": true,
        "series": [{"label": "pipe", "points": [
            {"x": 64, "cycles": 1000, "valid": true},
            {"x": 128, "cycles": 900, "valid": true},
            {"x": 256, "cycles": 800, "valid": false}
        ]}]
    }`

// TestCatalogIdentical: a catalog diffed against itself is clean, and
// invalid points never enter the comparison.
func TestCatalogIdentical(t *testing.T) {
	doc := sweepJSON(goldenOutcome)
	r, err := compare.CompareSweepJSON(doc, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() {
		t.Fatalf("self-compare not clean: %+v", r)
	}
	if r.PointsCompared != 2 {
		t.Errorf("points compared = %d, want 2 (the invalid point is excluded)", r.PointsCompared)
	}
	if !strings.Contains(r.Summary, "cycle-identical") {
		t.Errorf("summary = %q", r.Summary)
	}
}

// TestCatalogDrift: a changed cycle count is drift, ranked by magnitude,
// and fails the gate.
func TestCatalogDrift(t *testing.T) {
	golden := sweepJSON(goldenOutcome)
	candidate := sweepJSON(`{
        "id": "figure-4", "ok": true,
        "series": [{"label": "pipe", "points": [
            {"x": 64, "cycles": 1001, "valid": true},
            {"x": 128, "cycles": 950, "valid": true}
        ]}]
    }`)
	r, err := compare.CompareSweepJSON(golden, candidate)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean() {
		t.Fatal("drifted catalog reported clean")
	}
	if len(r.Drift) != 2 {
		t.Fatalf("drift rows = %d, want 2", len(r.Drift))
	}
	if r.Drift[0].X != 128 || r.Drift[0].Delta != 50 {
		t.Errorf("worst drift = %+v, want x=128 delta +50 first", r.Drift[0])
	}
	if !strings.Contains(r.Summary, "figure-4/pipe@128") {
		t.Errorf("summary does not name the worst point: %q", r.Summary)
	}
}

// TestCatalogMissing: losing a golden point fails the gate; gaining a new
// point only warns.
func TestCatalogMissing(t *testing.T) {
	golden := sweepJSON(goldenOutcome)
	lost := sweepJSON(`{
        "id": "figure-4", "ok": true,
        "series": [{"label": "pipe", "points": [
            {"x": 64, "cycles": 1000, "valid": true}
        ]}]
    }`)
	r, err := compare.CompareSweepJSON(golden, lost)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean() {
		t.Fatal("catalog that lost a point reported clean")
	}
	if len(r.MissingInB) != 1 || r.MissingInB[0] != "figure-4/pipe@128" {
		t.Errorf("missing_in_b = %v", r.MissingInB)
	}

	gained := sweepJSON(goldenOutcome + `, {
        "id": "figure-9", "ok": true,
        "series": [{"label": "tib", "points": [{"x": 64, "cycles": 500, "valid": true}]}]
    }`)
	r, err = compare.CompareSweepJSON(golden, gained)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() {
		t.Errorf("catalog that only gained points should pass the gate: %+v", r)
	}
	if len(r.MissingInA) != 1 || r.MissingInA[0] != "figure-9/tib@64" {
		t.Errorf("missing_in_a = %v", r.MissingInA)
	}
	if !strings.Contains(r.Summary, "regenerate the golden") {
		t.Errorf("summary = %q", r.Summary)
	}
}

// TestCatalogFailedExperiment: an outcome with ok=false contributes no
// points, so its golden points show up as missing.
func TestCatalogFailedExperiment(t *testing.T) {
	golden := sweepJSON(goldenOutcome)
	failed := sweepJSON(`{
        "id": "figure-4", "ok": false, "error": "boom",
        "series": [{"label": "pipe", "points": [
            {"x": 64, "cycles": 1000, "valid": true},
            {"x": 128, "cycles": 900, "valid": true}
        ]}]
    }`)
	r, err := compare.CompareSweepJSON(golden, failed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean() {
		t.Fatal("failed experiment reported clean")
	}
	if len(r.MissingInB) != 2 {
		t.Errorf("missing_in_b = %v, want both points", r.MissingInB)
	}
}

// TestCatalogBadSchema rejects foreign documents on either side.
func TestCatalogBadSchema(t *testing.T) {
	good := sweepJSON(goldenOutcome)
	bad := []byte(`{"schema": "pipesim-runs/v1"}`)
	if _, err := compare.CompareSweepJSON(bad, good); err == nil {
		t.Error("foreign schema on side a accepted")
	}
	if _, err := compare.CompareSweepJSON(good, bad); err == nil {
		t.Error("foreign schema on side b accepted")
	}
}

// blockOutcome is goldenOutcome carrying attribution and cache blocks,
// with the cache block's capacity count set to capacity.
func blockOutcome(capacity int) string {
	return fmt.Sprintf(`{
        "id": "figure-4", "ok": true,
        "series": [{"label": "pipe", "points": [
            {"x": 64, "cycles": 1000, "valid": true},
            {"x": 128, "cycles": 900, "valid": true}
        ]}],
        "attribution": {"issue": 1200, "fetch_starved": 500, "ldq_wait": 200, "queue_full": 0, "drain": 0, "other": 0},
        "cache": {"compulsory": 40, "capacity": %d, "conflict": 7, "evictions": 90, "dead_evictions": 30}
    }`, capacity)
}

// TestCatalogBlocksIdentical: identical attribution and cache blocks are
// compared and clean.
func TestCatalogBlocksIdentical(t *testing.T) {
	doc := sweepJSON(blockOutcome(50))
	r, err := compare.CompareSweepJSON(doc, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Clean() || r.BlocksCompared != 2 {
		t.Fatalf("self-compare: clean=%v blocks compared %d, want clean and 2: %+v", r.Clean(), r.BlocksCompared, r)
	}
	if !strings.Contains(r.Summary, "2 attribution and cache blocks match") {
		t.Errorf("summary = %q", r.Summary)
	}
}

// TestCatalogBlockDrift: one 3C field changed with every cycle count
// equal is drift, and fails the gate.
func TestCatalogBlockDrift(t *testing.T) {
	r, err := compare.CompareSweepJSON(sweepJSON(blockOutcome(50)), sweepJSON(blockOutcome(51)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean() {
		t.Fatal("a changed cache.capacity reported clean")
	}
	want := compare.BlockDelta{Experiment: "figure-4", Block: "cache", Field: "capacity", A: 50, B: 51}
	if len(r.Drift) != 0 || len(r.BlockDrift) != 1 || r.BlockDrift[0] != want {
		t.Fatalf("point drift %v, block drift %v; want only %v", r.Drift, r.BlockDrift, want)
	}
	if !strings.Contains(r.Summary, "figure-4 cache.capacity: 50 -> 51") {
		t.Errorf("summary does not name the field: %q", r.Summary)
	}
}

// TestCatalogMissingBlockNotDrift: a document without the blocks (an older
// golden, or an experiment that reports none) compares on cycles alone.
func TestCatalogMissingBlockNotDrift(t *testing.T) {
	for _, pair := range [][2]string{{goldenOutcome, blockOutcome(50)}, {blockOutcome(50), goldenOutcome}} {
		r, err := compare.CompareSweepJSON(sweepJSON(pair[0]), sweepJSON(pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		// goldenOutcome's invalid third point is not compared either way.
		if len(r.BlockDrift) != 0 || r.BlocksCompared != 0 || len(r.Drift) != 0 || len(r.MissingInB) != 0 {
			t.Errorf("a missing block changed the comparison: %+v", r)
		}
	}
}
