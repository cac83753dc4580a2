package core

// CostModel evaluates the total execution time model of Section 1:
//
//	t_tot = α (t_comp + t_comm) + t_mig + t_repart
//
// with per-unit rates turning volumes into times. The paper drops t_comp
// (assumed balanced) and t_repart (assumed small) from the objective it
// minimizes, α·t_comm + t_mig; Evaluate reports all four terms.
type CostModel struct {
	// CommSecPerUnit converts one unit of communication volume into
	// seconds per iteration.
	CommSecPerUnit float64
	// MigSecPerUnit converts one unit of migration volume into seconds.
	MigSecPerUnit float64
	// CompSecPerIter is the (balanced) computation time per iteration.
	CompSecPerIter float64
}

// Estimate is a t_tot breakdown for one epoch.
type Estimate struct {
	Comp, Comm, Mig, Repart float64 // seconds
}

// Total returns t_tot in seconds.
func (e Estimate) Total() float64 { return e.Comp + e.Comm + e.Mig + e.Repart }

// Evaluate applies the model to one epoch's result.
func (m CostModel) Evaluate(r Result, alpha int64) Estimate {
	return Estimate{
		Comp:   float64(alpha) * m.CompSecPerIter,
		Comm:   float64(alpha) * float64(r.CommVolume) * m.CommSecPerUnit,
		Mig:    float64(r.MigrationVolume) * m.MigSecPerUnit,
		Repart: r.RepartTime.Seconds(),
	}
}

// DefaultCostModel is a nominal cluster profile: 1 µs per communication
// unit, 1 µs per migration unit, 10 ms of computation per iteration. Only
// ratios matter for method comparisons.
var DefaultCostModel = CostModel{
	CommSecPerUnit: 1e-6,
	MigSecPerUnit:  1e-6,
	CompSecPerIter: 1e-2,
}
