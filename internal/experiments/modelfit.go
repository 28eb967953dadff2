package experiments

import (
	"fmt"
	"slices"
	"sync"

	"planetapps/internal/dist"
	"planetapps/internal/model"
	"planetapps/internal/report"
	"planetapps/internal/snapshot"
)

func init() {
	register("F8", func(s *Suite) (Result, error) { return Figure8(s) })
	register("F9", func(s *Suite) (Result, error) { return Figure9(s) })
	register("F10", func(s *Suite) (Result, error) { return Figure10(s) })
	register("X1", func(s *Suite) (Result, error) { return AblationX1(s) })
}

// fitSpec is the standard fitting grid with the suite's worker budget
// threaded into the Monte Carlo refinement.
func fitSpec(s *Suite) model.FitSpec {
	spec := model.DefaultFitSpec()
	spec.Workers = s.cfg.Workers
	return spec
}

// fitKey names the fits a suite keeps: every model kind fitted to one day
// of one store's series. The curve, spec and seed follow from it.
type fitKey struct {
	store string
	day   int
}

// fitEntry is the single-flight slot for one fitKey, as storeEntry is for
// a store.
type fitEntry struct {
	once sync.Once
	fits []model.FitResult
	err  error
}

// fitAll returns every model kind's Monte Carlo fit to the curve of day in
// store's series, best first (model.FitAllMC), fitting them on first use.
// Figure 9's last-day rows are Figure 8's fits: whichever runs first fits,
// concurrent callers of one key wait for it, and the other reads the
// result. Callers must not modify it.
func (s *Suite) fitAll(store string, day *snapshot.Day) ([]model.FitResult, error) {
	k := fitKey{store, day.Index}
	s.mu.Lock()
	e, ok := s.fits[k]
	if !ok {
		e = &fitEntry{}
		s.fits[k] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		curve := day.Curve().TrimZeroTail()
		if len(curve.Downloads) == 0 {
			e.err = fmt.Errorf("experiments: store %s day %d curve empty", store, day.Index)
			return
		}
		e.fits, e.err = model.FitAllMC(curve, fitSpec(s), s.cfg.Seed)
	})
	return e.fits, e.err
}

// Figure8Result compares the three models' best fits per store (Figure 8).
type Figure8Result struct {
	Stores []Figure8Store
}

// Figure8Store is one subplot: the best fit of each model to one store's
// final-day curve.
type Figure8Store struct {
	Store string
	Fits  []model.FitResult // ordered best-first
}

// Tables implements Result.
func (r *Figure8Result) Tables() []*report.Table {
	t := report.NewTable("Figure 8: predicted vs measured popularity (best-fit parameters)",
		"store", "model", "zr", "zc", "p", "users", "distance")
	for _, st := range r.Stores {
		for _, f := range st.Fits {
			zc, p := "-", "-"
			if f.Kind == model.AppClustering {
				zc = report.FormatFloat(f.Config.ZipfCluster)
				p = report.FormatFloat(f.Config.ClusterP)
			}
			t.AddRow(st.Store, f.Kind.String(), f.Config.ZipfGlobal, zc, p, f.Config.Users, f.Distance)
		}
	}
	return []*report.Table{t}
}

// Figure8 fits all three models to each store's measured final-day curve.
// Stores are fitted concurrently (each fit is itself parallel); results land
// in store-indexed slots so the output order matches fitStores.
func Figure8(s *Suite) (*Figure8Result, error) {
	stores := s.fitStores()
	out := &Figure8Result{Stores: make([]Figure8Store, len(stores))}
	err := model.ForEach(s.cfg.Workers, len(stores), func(i int) error {
		store := stores[i]
		ds, err := s.Store(store)
		if err != nil {
			return err
		}
		fits, err := s.fitAll(store, ds.Series.Last())
		if err != nil {
			return err
		}
		out.Stores[i] = Figure8Store{Store: store, Fits: slices.Clone(fits)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Figure9Result compares model distances on first vs last crawl day
// (Figure 9).
type Figure9Result struct {
	Rows []Figure9Row
}

// Figure9Row is one dataset (store x day) with the three model distances.
type Figure9Row struct {
	Store string
	// Edge is "first" or "last".
	Edge      string
	Distances map[string]float64
}

// Tables implements Result.
func (r *Figure9Result) Tables() []*report.Table {
	t := report.NewTable("Figure 9: distance from measured data (first/last day)",
		"store", "day", "ZIPF", "ZIPF-at-most-once", "APP-CLUSTERING")
	for _, row := range r.Rows {
		t.AddRow(row.Store, row.Edge,
			row.Distances[model.Zipf.String()],
			row.Distances[model.ZipfAtMostOnce.String()],
			row.Distances[model.AppClustering.String()])
	}
	return []*report.Table{t}
}

// Figure9 fits each model to the first- and last-day curves of the three
// fit stores. The six (store, edge) datasets are fitted concurrently into
// index-distinct row slots, preserving the sequential row order.
func Figure9(s *Suite) (*Figure9Result, error) {
	edges := []string{"first", "last"}
	stores := s.fitStores()
	out := &Figure9Result{Rows: make([]Figure9Row, len(stores)*len(edges))}
	err := model.ForEach(s.cfg.Workers, len(out.Rows), func(i int) error {
		store := stores[i/len(edges)]
		edge := edges[i%len(edges)]
		ds, err := s.Store(store)
		if err != nil {
			return err
		}
		day := ds.Series.First()
		if edge == "last" {
			day = ds.Series.Last()
		}
		fits, err := s.fitAll(store, day)
		if err != nil {
			return err
		}
		row := Figure9Row{Store: store, Edge: edge, Distances: map[string]float64{}}
		for _, fit := range fits {
			row.Distances[fit.Kind.String()] = fit.Distance
		}
		out.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Figure10Result sweeps the simulated user count (Figure 10).
type Figure10Result struct {
	// Fractions of the top app's downloads used as U.
	Fractions []float64
	// Distance[store][i] is the best-fit distance at Fractions[i].
	Distance map[string][]float64
	Order    []string
}

// Tables implements Result.
func (r *Figure10Result) Tables() []*report.Table {
	t := report.NewTable("Figure 10: distance vs number of users (fraction of top-app downloads)",
		append([]string{"users fraction"}, r.Order...)...)
	for i, f := range r.Fractions {
		row := []any{f}
		for _, store := range r.Order {
			row = append(row, r.Distance[store][i])
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

// Figure10 sweeps U as a fraction of the top app's downloads.
func Figure10(s *Suite) (*Figure10Result, error) {
	stores := s.fitStores()
	out := &Figure10Result{
		Fractions: []float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 20, 50},
		Distance:  map[string][]float64{},
		Order:     stores,
	}
	// Per-store sweeps run concurrently; each writes a distinct slot of the
	// distances slice, and the map is assembled after the barrier.
	distances := make([][]float64, len(stores))
	err := model.ForEach(s.cfg.Workers, len(stores), func(i int) error {
		ds, err := s.Store(stores[i])
		if err != nil {
			return err
		}
		curve := ds.Series.Last().Curve().TrimZeroTail()
		// The paper fixes the non-U parameters at their best-fit values and
		// sweeps only the simulated user count.
		best, err := model.Fit(model.AppClustering, curve, model.DefaultFitSpec())
		if err != nil {
			return err
		}
		distances[i], err = model.UserSweepMC(model.AppClustering, curve, best.Config, out.Fractions, s.cfg.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, store := range stores {
		out.Distance[store] = distances[i]
	}
	return out, nil
}

// AblationX1Result varies the APP-CLUSTERING knobs to isolate their effect
// on the curve shape (extension X1).
type AblationX1Result struct {
	Rows []AblationRow
}

// AblationRow is one simulated configuration's shape summary.
type AblationRow struct {
	Label string
	P     float64
	Zc    float64
	// TailShare is the download share of the bottom half of ranks.
	TailShare float64
	// Top10Share is the download share of the top decile.
	Top10Share float64
	// DistanceToAMO is the distance from a matching ZIPF-at-most-once run.
	DistanceToAMO float64
}

// Tables implements Result.
func (r *AblationX1Result) Tables() []*report.Table {
	t := report.NewTable("X1: APP-CLUSTERING ablation (contiguous clusters)",
		"config", "p", "zc", "top-10% share", "bottom-half share", "distance to AMO")
	for _, row := range r.Rows {
		t.AddRow(row.Label, row.P, row.Zc, row.Top10Share, row.TailShare, row.DistanceToAMO)
	}
	return []*report.Table{t}
}

// AblationX1 sweeps p and zc under contiguous (popularity-correlated)
// clusters, showing that tail truncation strengthens with p and that p=0
// degenerates to ZIPF-at-most-once.
func AblationX1(s *Suite) (*AblationX1Result, error) {
	if err := s.simulated("X1 simulates the model alone and reads no store"); err != nil {
		return nil, err
	}
	base := model.Config{
		Apps: 3000, Users: 8000, DownloadsPerUser: 12,
		ZipfGlobal: 1.3, ZipfCluster: 1.4, ClusterP: 0.9,
		ClusterMap: model.Contiguous(3000, 30),
	}
	amoSim, err := model.NewSimulator(model.ZipfAtMostOnce, base)
	if err != nil {
		return nil, err
	}
	amo := amoSim.Run(s.cfg.Seed).Curve()

	out := &AblationX1Result{}
	for _, cfgCase := range []struct {
		label string
		p, zc float64
	}{
		{"p=0 (degenerates to AMO)", 0, 1.4},
		{"p=0.5", 0.5, 1.4},
		{"p=0.9", 0.9, 1.4},
		{"p=0.9, flat clusters", 0.9, 0.8},
		{"p=0.9, steep clusters", 0.9, 2.0},
	} {
		cfg := base
		cfg.ClusterP = cfgCase.p
		cfg.ZipfCluster = cfgCase.zc
		sim, err := model.NewSimulator(model.AppClustering, cfg)
		if err != nil {
			return nil, err
		}
		curve := sim.Run(s.cfg.Seed).Curve()
		half := len(curve.Downloads) / 2
		var tail, total float64
		for i, v := range curve.Downloads {
			total += v
			if i >= half {
				tail += v
			}
		}
		var top float64
		for i := 0; i < len(curve.Downloads)/10; i++ {
			top += curve.Downloads[i]
		}
		out.Rows = append(out.Rows, AblationRow{
			Label: cfgCase.label, P: cfgCase.p, Zc: cfgCase.zc,
			TailShare:     tail / total,
			Top10Share:    top / total,
			DistanceToAMO: dist.MeanRelativeError(amo, curve),
		})
	}
	return out, nil
}
