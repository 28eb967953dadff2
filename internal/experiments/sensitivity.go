package experiments

import (
	"planetapps/internal/catalog"
	"planetapps/internal/marketsim"
	"planetapps/internal/model"
	"planetapps/internal/report"
)

func init() {
	register("X5", func(s *Suite) (Result, error) { return SensitivityX5(s) })
}

// SensitivityX5Result validates the whole fitting methodology: stores are
// simulated with different planted clustering strengths, and the fitted
// APP-CLUSTERING parameters must track the plant. This is the control
// experiment a measurement study cannot run on live stores (the ground
// truth is unknown there) but a reproduction can and should.
type SensitivityX5Result struct {
	Rows []SensitivityRow
}

// SensitivityRow is one planted-vs-fitted comparison.
type SensitivityRow struct {
	// PlantedP is the market simulation's clustering probability.
	PlantedP float64
	// FittedP is the best-fit APP-CLUSTERING p.
	FittedP float64
	// ClusteringDistance and AMODistance compare the two leading models.
	ClusteringDistance, AMODistance float64
	// Advantage is AMODistance/ClusteringDistance (>1: clustering wins).
	Advantage float64
}

// Tables implements Result.
func (r *SensitivityX5Result) Tables() []*report.Table {
	t := report.NewTable("X5: fitted clustering strength tracks the planted strength",
		"planted p", "fitted p", "CL distance", "AMO distance", "AMO/CL")
	for _, row := range r.Rows {
		t.AddRow(row.PlantedP, row.FittedP, row.ClusteringDistance, row.AMODistance, row.Advantage)
	}
	return []*report.Table{t}
}

// SensitivityX5 sweeps the planted ClusterP of an anzhi-profile market and
// fits the models to each resulting curve. The planted configurations are
// independent (separate markets, separate seeds), so they simulate and fit
// concurrently into index-distinct row slots.
func SensitivityX5(s *Suite) (*SensitivityX5Result, error) {
	if err := s.simulated("X5 plants clustering strengths in markets of its own: ground truth a crawl does not have"); err != nil {
		return nil, err
	}
	planted := []float64{0.1, 0.5, 0.9}
	out := &SensitivityX5Result{Rows: make([]SensitivityRow, len(planted))}
	err := model.ForEach(s.cfg.Workers, len(planted), func(i int) error {
		p := planted[i]
		prof := catalog.Profiles["anzhi"].Scale(s.cfg.Scale)
		prof.ClusterP = p
		cfg := marketsim.DefaultConfig(prof)
		cfg.Days = s.cfg.Days
		m, err := marketsim.New(cfg, s.cfg.Seed+uint64(p*1000))
		if err != nil {
			return err
		}
		series, err := m.Run()
		if err != nil {
			return err
		}
		curve := series.Last().Curve().TrimZeroTail()
		cl, err := model.FitMC(model.AppClustering, curve, fitSpec(s), s.cfg.Seed)
		if err != nil {
			return err
		}
		amo, err := model.FitMC(model.ZipfAtMostOnce, curve, fitSpec(s), s.cfg.Seed)
		if err != nil {
			return err
		}
		row := SensitivityRow{
			PlantedP:           p,
			FittedP:            cl.Config.ClusterP,
			ClusteringDistance: cl.Distance,
			AMODistance:        amo.Distance,
		}
		if cl.Distance > 0 {
			row.Advantage = amo.Distance / cl.Distance
		}
		out.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
