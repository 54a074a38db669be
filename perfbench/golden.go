package main

import (
	"encoding/json"
	"fmt"
	"os"

	"pipesim"
	"pipesim/internal/sweep"
)

// pointID names one point of the golden catalog: experiment, series label
// and x coordinate (cache size for the figures).
type pointID struct {
	Exp    string
	Series string
	X      int
}

func (p pointID) String() string { return fmt.Sprintf("%s/%s/%d", p.Exp, p.Series, p.X) }

// goldenPoint is one recorded catalog value.
type goldenPoint struct {
	Cycles uint64
	Valid  bool
}

// golden is the committed catalog (GOLDEN_catalog.json, schema
// pipesim-sweep/v1): every experiment point's expected cycles.
type golden struct {
	order  []pointID       // file order; Table II repeats an x
	values []goldenPoint   // parallel to order
	first  map[pointID]int // index of each id's first point
}

// loadGolden reads the catalog once.
func loadGolden(path string) (*golden, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading golden catalog: %w", err)
	}
	var doc struct {
		Schema   string `json:"schema"`
		Outcomes []struct {
			ID     string `json:"id"`
			Series []struct {
				Label  string `json:"label"`
				Points []struct {
					X      int    `json:"x"`
					Cycles uint64 `json:"cycles"`
					Valid  bool   `json:"valid"`
				} `json:"points"`
			} `json:"series"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("decoding golden catalog: %w", err)
	}
	if doc.Schema != "pipesim-sweep/v1" {
		return nil, fmt.Errorf("golden catalog schema %q, want pipesim-sweep/v1", doc.Schema)
	}
	g := &golden{first: make(map[pointID]int)}
	for _, o := range doc.Outcomes {
		for _, s := range o.Series {
			for _, p := range s.Points {
				id := pointID{o.ID, s.Label, p.X}
				if _, dup := g.first[id]; !dup {
					g.first[id] = len(g.order)
				}
				g.order = append(g.order, id)
				g.values = append(g.values, goldenPoint{Cycles: p.Cycles, Valid: p.Valid})
			}
		}
	}
	return g, nil
}

// cycles returns the expected cycles of a valid point.
func (g *golden) cycles(id pointID) (uint64, bool) {
	i, ok := g.first[id]
	if !ok || !g.values[i].Valid {
		return 0, false
	}
	return g.values[i].Cycles, true
}

// checkSweep compares one catalog run with the golden catalog point by
// point, in presentation order: a point fails when its id, validity or
// cycles differ, and every point of an experiment that errored fails. It
// returns the points checked and the failures (each described).
func (g *golden) checkSweep(sum *sweep.Summary) (attempted int, failures []string) {
	var ids []pointID
	var got []goldenPoint
	errored := make(map[string]error)
	for _, o := range sum.Outcomes {
		if o.Err != nil {
			errored[o.Experiment.ID] = o.Err
			continue
		}
		for _, s := range o.Result.Series {
			for _, p := range s.Points {
				ids = append(ids, pointID{o.Experiment.ID, s.Label, p.CacheBytes})
				got = append(got, goldenPoint{Cycles: p.Cycles, Valid: p.Valid})
			}
		}
	}
	j := 0 // next point of the run
	for i, id := range g.order {
		attempted++
		if err, bad := errored[id.Exp]; bad {
			failures = append(failures, fmt.Sprintf("%s: experiment failed: %v", id, err))
			continue
		}
		if j >= len(ids) || ids[j] != id {
			failures = append(failures, fmt.Sprintf("%s: missing from the run", id))
			continue
		}
		if want := g.values[i]; got[j] != want {
			failures = append(failures, fmt.Sprintf("%s: got cycles %d valid %v, golden %d valid %v",
				id, got[j].Cycles, got[j].Valid, want.Cycles, want.Valid))
		}
		j++
	}
	if j != len(ids) {
		failures = append(failures, fmt.Sprintf("run has %d points beyond the golden catalog", len(ids)-j))
	}
	return attempted, failures
}

// machine is one simulated Livermore machine with its golden cycle count.
type machine struct {
	ID     pointID
	Cfg    pipesim.Config
	Cycles uint64
}

// memSetting is one experiment's memory-system parameters.
type memSetting struct {
	access, bus int
	pipelined   bool
}

// figureMemory lists the cache-size sweeps over the full variant set: the
// paper's Figures 4-6 (6a is 5b's machine and adds nothing) and the
// access-time claims.
var figureMemory = []struct {
	exp string
	mem memSetting
}{
	{"fig4a", memSetting{1, 4, false}},
	{"fig4b", memSetting{1, 8, false}},
	{"fig5a", memSetting{6, 4, false}},
	{"fig5b", memSetting{6, 8, false}},
	{"fig6b", memSetting{6, 8, true}},
	{"access2", memSetting{2, 4, false}},
	{"access3", memSetting{3, 4, false}},
}

// variantConfig is the public configuration of one figure variant ("conv"
// or a Table II name) at one cache size and memory setting.
func variantConfig(variant string, cacheBytes int, m memSetting) (pipesim.Config, error) {
	cfg := pipesim.DefaultConfig()
	if variant == "conv" {
		cfg.Strategy = pipesim.StrategyConventional
		cfg.LineBytes = sweep.ConvLineBytes
	} else {
		var err error
		if cfg, err = pipesim.TableIIConfig(variant); err != nil {
			return cfg, err
		}
	}
	cfg.CacheBytes = cacheBytes
	cfg.MemAccessTime = m.access
	cfg.BusWidthBytes = m.bus
	cfg.PipelinedMemory = m.pipelined
	return cfg, nil
}

// figureMachines returns one figure experiment's valid machines, in
// presentation order (variant, then cache size).
func (g *golden) figureMachines(exp string) ([]machine, error) {
	var m memSetting
	found := false
	for _, f := range figureMemory {
		if f.exp == exp {
			m, found = f.mem, true
		}
	}
	if !found {
		return nil, fmt.Errorf("no figure experiment %q", exp)
	}
	var out []machine
	for _, variant := range sweep.GridVariants() {
		for _, size := range sweep.CacheSizes {
			id := pointID{exp, variant, size}
			cycles, ok := g.cycles(id)
			if !ok {
				continue // no such machine (cache smaller than a line)
			}
			cfg, err := variantConfig(variant, size, m)
			if err != nil {
				return nil, err
			}
			out = append(out, machine{ID: id, Cfg: cfg, Cycles: cycles})
		}
	}
	return out, nil
}

// ablationMachines returns the PIPE 16-16 / conventional ablation points:
// true prefetch on and off at T=1 and T=6, and instruction versus data
// priority at the memory interface.
func (g *golden) ablationMachines() ([]machine, error) {
	var out []machine
	add := func(id pointID, cfg pipesim.Config) error {
		cycles, ok := g.cycles(id)
		if !ok {
			return fmt.Errorf("golden catalog lacks %s", id)
		}
		out = append(out, machine{ID: id, Cfg: cfg, Cycles: cycles})
		return nil
	}
	for _, mode := range []struct {
		label string
		tp    bool
		T     int
	}{
		{"T=1 true-prefetch", true, 1},
		{"T=1 guaranteed-only", false, 1},
		{"T=6 true-prefetch", true, 6},
		{"T=6 guaranteed-only", false, 6},
	} {
		for _, size := range sweep.CacheSizes {
			cfg, err := variantConfig("16-16", size, memSetting{mode.T, 8, false})
			if err != nil {
				return nil, err
			}
			cfg.TruePrefetch = mode.tp
			if err := add(pointID{"noprefetch", mode.label, size}, cfg); err != nil {
				return nil, err
			}
		}
	}
	for _, pr := range []struct {
		label, variant string
		instr          bool
	}{
		{"pipe instr-priority", "16-16", true},
		{"pipe data-priority", "16-16", false},
		{"conv instr-priority", "conv", true},
		{"conv data-priority", "conv", false},
	} {
		for _, size := range sweep.CacheSizes {
			cfg, err := variantConfig(pr.variant, size, memSetting{6, 8, false})
			if err != nil {
				return nil, err
			}
			cfg.InstrPriority = pr.instr
			if err := add(pointID{"priority", pr.label, size}, cfg); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// livermoreMachines returns every distinct Livermore machine of the
// figures, access-time claims and ablations. Catalog points that denote
// the same machine (noprefetch's true-prefetch series re-run figure
// points) appear once; their golden values must agree.
func (g *golden) livermoreMachines() ([]machine, error) {
	var all []machine
	for _, f := range figureMemory {
		ms, err := g.figureMachines(f.exp)
		if err != nil {
			return nil, err
		}
		all = append(all, ms...)
	}
	abl, err := g.ablationMachines()
	if err != nil {
		return nil, err
	}
	all = append(all, abl...)
	seen := make(map[pipesim.Config]int)
	var out []machine
	for _, m := range all {
		if i, dup := seen[m.Cfg]; dup {
			if out[i].Cycles != m.Cycles {
				return nil, fmt.Errorf("golden catalog disagrees on one machine: %s=%d vs %s=%d",
					out[i].ID, out[i].Cycles, m.ID, m.Cycles)
			}
			continue
		}
		seen[m.Cfg] = len(out)
		out = append(out, m)
	}
	return out, nil
}
