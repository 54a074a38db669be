package compare

// The catalog comparer diffs two pipesim-sweep/v1 metrics documents
// (cmd/experiments -metrics) point by point. The simulator is
// deterministic, so two runs of the same catalog on the same code must
// produce identical cycle counts at every (experiment, series, x) point;
// any difference is simulated-metric drift — a semantic change to the
// simulator — as opposed to host-time noise, which lives only in the
// elapsed_seconds fields this comparer ignores. The same holds for each
// experiment's summed cycle attribution and 3C miss totals (its
// "attribution" and "cache" blocks), which are compared field by field
// whenever both documents carry them. The CI golden-catalog
// gate runs the catalog, diffs it against the committed golden archive
// with `pipesim diff -fail-on-drift`, and fails loudly on any drift.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// CatalogSchema identifies the CatalogReport JSON layout.
const CatalogSchema = "pipesim-compare-catalog/v1"

// sweepMetricsSchema is the input schema this comparer accepts
// (sweep.MetricsSchema, restated here to keep the package a leaf).
const sweepMetricsSchema = "pipesim-sweep/v1"

// sweepDoc is the subset of the sweep metrics file the comparer reads.
type sweepDoc struct {
	Schema   string `json:"schema"`
	Outcomes []struct {
		ID     string `json:"id"`
		OK     bool   `json:"ok"`
		Error  string `json:"error"`
		Series []struct {
			Label  string `json:"label"`
			Points []struct {
				X      int    `json:"x"`
				Cycles uint64 `json:"cycles"`
				Valid  bool   `json:"valid"`
			} `json:"points"`
		} `json:"series"`
		Attribution map[string]uint64 `json:"attribution"`
		Cache       map[string]uint64 `json:"cache"`
	} `json:"outcomes"`
}

// BlockDelta is one field of an experiment's attribution or cache block
// whose value drifted.
type BlockDelta struct {
	Experiment string `json:"experiment"`
	Block      string `json:"block"` // "attribution" or "cache"
	Field      string `json:"field"`
	A          uint64 `json:"a"`
	B          uint64 `json:"b"`
}

func (d BlockDelta) String() string {
	return fmt.Sprintf("%s %s.%s: %d -> %d", d.Experiment, d.Block, d.Field, d.A, d.B)
}

// PointDelta is one catalog point whose simulated value drifted.
type PointDelta struct {
	Experiment string `json:"experiment"`
	Series     string `json:"series"`
	X          int    `json:"x"`
	A          uint64 `json:"a"`
	B          uint64 `json:"b"`
	Delta      int64  `json:"delta"`
}

func (p PointDelta) String() string {
	return fmt.Sprintf("%s/%s@%d: %d -> %d (%+d)", p.Experiment, p.Series, p.X, p.A, p.B, p.Delta)
}

// CatalogReport is the catalog-level comparison (schema
// pipesim-compare-catalog/v1).
type CatalogReport struct {
	Schema string `json:"schema"`

	// PointsCompared counts the (experiment, series, x) points present on
	// both sides.
	PointsCompared int `json:"points_compared"`

	// Drift lists every compared point whose value differs, sorted by
	// absolute delta descending.
	Drift []PointDelta `json:"drift,omitempty"`

	// BlocksCompared counts the experiment attribution and cache blocks
	// present on both sides; BlockDrift lists every field of them that
	// differs, by experiment, block and field. A block absent from either
	// side is not compared.
	BlocksCompared int          `json:"blocks_compared"`
	BlockDrift     []BlockDelta `json:"block_drift,omitempty"`

	// MissingInB lists "experiment/series@x" points present in A (the
	// golden archive) but absent or invalid in B — a lost experiment is
	// drift too. MissingInA lists points new in B (an added experiment);
	// they do not fail the gate but signal the golden needs regenerating.
	MissingInB []string `json:"missing_in_b,omitempty"`
	MissingInA []string `json:"missing_in_a,omitempty"`

	Summary string `json:"summary"`
}

// Clean reports whether the gate should pass: no drifted points or block
// fields and nothing lost relative to the golden side.
func (r *CatalogReport) Clean() bool {
	return len(r.Drift) == 0 && len(r.BlockDrift) == 0 && len(r.MissingInB) == 0
}

type catalogPoint struct {
	exp, series string
	x           int
}

func (p catalogPoint) String() string { return fmt.Sprintf("%s/%s@%d", p.exp, p.series, p.x) }

// pointsOf flattens a sweep doc into its valid (experiment, series, x) →
// cycles map. Failed experiments and invalid points contribute nothing:
// a point that stopped being produced shows up as missing.
func pointsOf(doc *sweepDoc) map[catalogPoint]uint64 {
	out := make(map[catalogPoint]uint64)
	for _, o := range doc.Outcomes {
		if !o.OK {
			continue
		}
		for _, s := range o.Series {
			for _, p := range s.Points {
				if !p.Valid {
					continue
				}
				out[catalogPoint{exp: o.ID, series: s.Label, x: p.X}] = p.Cycles
			}
		}
	}
	return out
}

// CompareSweepJSON diffs two pipesim-sweep/v1 metrics documents: a is the
// reference (golden), b the candidate.
func CompareSweepJSON(a, b []byte) (*CatalogReport, error) {
	da, err := decodeSweep(a, "a")
	if err != nil {
		return nil, err
	}
	db, err := decodeSweep(b, "b")
	if err != nil {
		return nil, err
	}
	pa, pb := pointsOf(da), pointsOf(db)

	r := &CatalogReport{Schema: CatalogSchema}
	var keys []catalogPoint
	for k := range pa {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].exp != keys[j].exp {
			return keys[i].exp < keys[j].exp
		}
		if keys[i].series != keys[j].series {
			return keys[i].series < keys[j].series
		}
		return keys[i].x < keys[j].x
	})
	for _, k := range keys {
		av := pa[k]
		bv, ok := pb[k]
		if !ok {
			r.MissingInB = append(r.MissingInB, k.String())
			continue
		}
		r.PointsCompared++
		if av != bv {
			r.Drift = append(r.Drift, PointDelta{
				Experiment: k.exp, Series: k.series, X: k.x,
				A: av, B: bv, Delta: int64(bv) - int64(av),
			})
		}
	}
	var newKeys []catalogPoint
	for k := range pb {
		if _, ok := pa[k]; !ok {
			newKeys = append(newKeys, k)
		}
	}
	sort.Slice(newKeys, func(i, j int) bool { return newKeys[i].String() < newKeys[j].String() })
	for _, k := range newKeys {
		r.MissingInA = append(r.MissingInA, k.String())
	}
	sort.SliceStable(r.Drift, func(i, j int) bool { return abs64(r.Drift[i].Delta) > abs64(r.Drift[j].Delta) })
	compareBlocks(r, da, db)
	r.Summary = summarizeCatalog(r)
	return r, nil
}

// compareBlocks diffs the attribution and cache blocks of every experiment
// that carries them on both sides.
func compareBlocks(r *CatalogReport, da, db *sweepDoc) {
	type blocks struct{ attribution, cache map[string]uint64 }
	inB := make(map[string]blocks)
	for _, o := range db.Outcomes {
		inB[o.ID] = blocks{o.Attribution, o.Cache}
	}
	for _, o := range da.Outcomes {
		b, ok := inB[o.ID]
		if !ok {
			continue
		}
		for _, blk := range []struct {
			name string
			a, b map[string]uint64
		}{{"attribution", o.Attribution, b.attribution}, {"cache", o.Cache, b.cache}} {
			if blk.a == nil || blk.b == nil {
				continue
			}
			r.BlocksCompared++
			fields := make([]string, 0, len(blk.a))
			for f := range blk.a {
				fields = append(fields, f)
			}
			for f := range blk.b {
				if _, ok := blk.a[f]; !ok {
					fields = append(fields, f)
				}
			}
			sort.Strings(fields)
			for _, f := range fields {
				av, aok := blk.a[f]
				bv, bok := blk.b[f]
				if av != bv || aok != bok {
					r.BlockDrift = append(r.BlockDrift, BlockDelta{Experiment: o.ID, Block: blk.name, Field: f, A: av, B: bv})
				}
			}
		}
	}
}

func decodeSweep(raw []byte, side string) (*sweepDoc, error) {
	var doc sweepDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("compare: decoding sweep document %s: %w", side, err)
	}
	if doc.Schema != sweepMetricsSchema {
		return nil, fmt.Errorf("compare: sweep document %s has schema %q, want %q", side, doc.Schema, sweepMetricsSchema)
	}
	return &doc, nil
}

func summarizeCatalog(r *CatalogReport) string {
	if r.Clean() && len(r.MissingInA) == 0 {
		if r.BlocksCompared > 0 {
			return fmt.Sprintf("catalogs are cycle-identical across %d points, and %d attribution and cache blocks match.",
				r.PointsCompared, r.BlocksCompared)
		}
		return fmt.Sprintf("catalogs are cycle-identical across %d points.", r.PointsCompared)
	}
	var parts []string
	if len(r.Drift) > 0 {
		parts = append(parts, fmt.Sprintf("%d of %d points drifted (worst: %s)",
			len(r.Drift), r.PointsCompared, r.Drift[0].String()))
	}
	if len(r.BlockDrift) > 0 {
		parts = append(parts, fmt.Sprintf("%d attribution or cache fields drifted (first: %s)",
			len(r.BlockDrift), r.BlockDrift[0].String()))
	}
	if len(r.MissingInB) > 0 {
		parts = append(parts, fmt.Sprintf("%d golden points are missing from the candidate (first: %s)",
			len(r.MissingInB), r.MissingInB[0]))
	}
	if len(r.MissingInA) > 0 {
		parts = append(parts, fmt.Sprintf("%d points are new in the candidate (regenerate the golden to adopt them)",
			len(r.MissingInA)))
	}
	return strings.Join(parts, "; ") + "."
}
