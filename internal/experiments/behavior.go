package experiments

import (
	"planetapps/internal/affinity"
	"planetapps/internal/comments"
	"planetapps/internal/report"
	"planetapps/internal/stats"
)

func init() {
	register("F5", func(s *Suite) (Result, error) { return Figure5(s) })
	register("F6", func(s *Suite) (Result, error) { return Figure6(s) })
	register("F7", func(s *Suite) (Result, error) { return Figure7(s) })
}

// maxCommentsFilter mirrors the paper's spam threshold: users with more
// comments than this are treated as automated posters and dropped.
const maxCommentsFilter = 80

// Figure5Result is the user comment behaviour study (Figure 5a-d).
type Figure5Result struct {
	// CommentsPerUserCDF holds P(comments <= k) at the sampled Ks.
	Ks                 []int
	CommentsPerUserCDF []float64
	// UniqueCatsCDF holds P(unique categories <= k) for k = 1..10.
	UniqueCatsCDF []float64
	// SingleCategoryPct is the share of users commenting in one category
	// (paper: 53%).
	SingleCategoryPct float64
	// WithinFiveCatsPct is the share within five categories (paper: 94%).
	WithinFiveCatsPct float64
	// TopKSharePct[k-1] is the average share of a user's comments in their
	// top-k categories (paper: 66% for k=1, 95% for k=5).
	TopKSharePct []float64
	// CategoryDownloadPct is the per-category share of comments, sorted
	// descending (paper: max 12%).
	CategoryDownloadPct []float64
}

// Tables implements Result.
func (r *Figure5Result) Tables() []*report.Table {
	a := report.NewTable("Figure 5(a): comments per user", "k", "P(comments<=k)")
	for i, k := range r.Ks {
		a.AddRow(k, r.CommentsPerUserCDF[i])
	}
	b := report.NewTable("Figure 5(b): unique categories per user", "k", "P(categories<=k)")
	for k := 1; k <= len(r.UniqueCatsCDF); k++ {
		b.AddRow(k, r.UniqueCatsCDF[k-1])
	}
	c := report.NewTable("Figure 5(c): avg % of comments in top-k categories", "k", "share %")
	for k := 1; k <= len(r.TopKSharePct); k++ {
		c.AddRow(k, r.TopKSharePct[k-1])
	}
	d := report.NewTable("Figure 5(d): downloads per app category (top 10)", "category rank", "share %")
	for i, v := range r.CategoryDownloadPct {
		if i >= 10 {
			break
		}
		d.AddRow(i+1, v)
	}
	return []*report.Table{a, b, c, d}
}

// Figure5 runs the comment-behaviour measurements.
func Figure5(s *Suite) (*Figure5Result, error) {
	cat, stream, err := s.CommentData()
	if err != nil {
		return nil, err
	}
	filtered := comments.Filter(stream, maxCommentsFilter)
	out := &Figure5Result{Ks: []int{1, 2, 3, 5, 10, 20, 30}}

	counts := comments.PerUserCounts(filtered)
	var vals []float64
	for _, n := range counts {
		vals = append(vals, float64(n))
	}
	ecdf := stats.NewECDF(vals)
	for _, k := range out.Ks {
		out.CommentsPerUserCDF = append(out.CommentsPerUserCDF, ecdf.At(float64(k)))
	}

	uniq := comments.UniqueCategoriesPerUser(cat, filtered)
	var uvals []float64
	for _, n := range uniq {
		uvals = append(uvals, float64(n))
	}
	ucdf := stats.NewECDF(uvals)
	for k := 1; k <= 10; k++ {
		out.UniqueCatsCDF = append(out.UniqueCatsCDF, ucdf.At(float64(k)))
	}
	out.SingleCategoryPct = 100 * ucdf.At(1)
	out.WithinFiveCatsPct = 100 * ucdf.At(5)

	out.TopKSharePct = comments.TopKShare(cat, filtered, 5)
	out.CategoryDownloadPct = comments.DownloadsPerCategory(cat, filtered)
	return out, nil
}

// Figure6Result is the grouped temporal-affinity study (Figure 6).
type Figure6Result struct {
	Analysis *affinity.Analysis
}

// Tables implements Result.
func (r *Figure6Result) Tables() []*report.Table {
	var tables []*report.Table
	summary := report.NewTable("Figure 6: temporal affinity vs random-walk baseline",
		"depth", "mean affinity", "random walk", "ratio")
	for di, d := range r.Analysis.Depths {
		ratio := 0.0
		if r.Analysis.RandomWalk[di] > 0 {
			ratio = r.Analysis.OverallMean[di] / r.Analysis.RandomWalk[di]
		}
		summary.AddRow(d, r.Analysis.OverallMean[di], r.Analysis.RandomWalk[di], ratio)
	}
	tables = append(tables, summary)
	for di, d := range r.Analysis.Depths {
		t := report.NewTable(
			"Figure 6: affinity of group G(i) at depth "+report.FormatFloat(float64(d)),
			"comments i", "users", "mean affinity", "95% CI halfwidth")
		groups := r.Analysis.Groups[di]
		step := 1
		if len(groups) > 15 {
			step = len(groups) / 15
		}
		for i := 0; i < len(groups); i += step {
			g := groups[i]
			t.AddRow(g.Comments, g.N, g.Mean, g.CI95)
		}
		tables = append(tables, t)
	}
	return tables
}

// Figure6 measures per-group temporal affinity at depths 1-3.
func Figure6(s *Suite) (*Figure6Result, error) {
	an, err := affinityAnalysis(s)
	if err != nil {
		return nil, err
	}
	return &Figure6Result{Analysis: an}, nil
}

// affinityAnalysis runs the shared §4 pipeline.
func affinityAnalysis(s *Suite) (*affinity.Analysis, error) {
	cat, stream, err := s.CommentData()
	if err != nil {
		return nil, err
	}
	filtered := comments.Filter(stream, maxCommentsFilter)
	catStrings := comments.CategoryStrings(cat, comments.AppStrings(filtered))
	return affinity.Analyze(catStrings, cat.CategorySizes(), []int{1, 2, 3}, 10)
}

// Figure7Result is the affinity CDF study (Figure 7).
type Figure7Result struct {
	Analysis *affinity.Analysis
	// Medians per depth (paper: 0.5, 0.58, 0.67).
	Medians []float64
}

// Tables implements Result.
func (r *Figure7Result) Tables() []*report.Table {
	t := report.NewTable("Figure 7: CDF of per-user affinity",
		"affinity", "P(depth1)", "P(depth2)", "P(depth3)")
	for _, x := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		row := []any{x}
		for di := range r.Analysis.Depths {
			row = append(row, r.Analysis.CDF(di).At(x))
		}
		t.AddRow(row...)
	}
	m := report.NewTable("Figure 7: medians and baselines", "depth", "median affinity", "random walk")
	for di, d := range r.Analysis.Depths {
		m.AddRow(d, r.Medians[di], r.Analysis.RandomWalk[di])
	}
	return []*report.Table{t, m}
}

// Figure7 computes the affinity CDFs per depth.
func Figure7(s *Suite) (*Figure7Result, error) {
	an, err := affinityAnalysis(s)
	if err != nil {
		return nil, err
	}
	meds := make([]float64, len(an.Depths))
	copy(meds, an.Medians)
	return &Figure7Result{Analysis: an, Medians: meds}, nil
}
