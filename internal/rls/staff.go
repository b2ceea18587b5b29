package rls

import (
	"math"

	"socrm/internal/mathx"
)

// STAFF is an online learner with a Stabilized Adaptive Forgetting Factor
// and online Feature selection, in the spirit of ref [30] (Gupta et al.,
// DAC'18). Two mechanisms extend plain RLS:
//
//  1. The forgetting factor adapts to the prediction error: large recent
//     errors (a workload change) shrink lambda for fast re-convergence;
//     small errors push lambda toward 1 for low-variance steady state. The
//     covariance trace is bounded to stabilize the adaptation (the "ST" in
//     STAFF).
//  2. Features whose weight contribution stays negligible are masked out of
//     the update, reducing estimator variance; they are re-admitted when
//     the running error degrades.
type STAFF struct {
	rls *RLS

	LambdaMin   float64 // lower bound of the adaptive forgetting factor
	LambdaMax   float64
	Sensitivity float64 // how aggressively errors shrink lambda
	MaxTrace    float64 // covariance-trace stabilization bound

	errVar float64 // running error variance (EW average)
	beta   float64 // error-variance smoothing

	Mask         []bool    // active-feature mask
	contribution []float64 // running |w_i * x_i| per feature
	SelectEvery  int       // reassess the mask every this many samples
	KeepFraction float64   // features kept per reassessment
	minActive    int

	// Persistent scratch: the masked copy of the input and the
	// contribution-sorted index permutation of reselect. A STAFF is an
	// online per-consumer estimator (like the RLS underneath), so
	// Predict/Update must not be called concurrently on one instance.
	maskedBuf []float64
	selIdx    []int
}

// NewSTAFF returns a STAFF estimator over dim features.
func NewSTAFF(dim int, delta float64) *STAFF {
	s := &STAFF{
		rls:          New(dim, 0.99, delta),
		LambdaMin:    0.90,
		LambdaMax:    0.999,
		Sensitivity:  0.5,
		MaxTrace:     1e4,
		beta:         0.95,
		Mask:         make([]bool, dim),
		contribution: make([]float64, dim),
		SelectEvery:  64,
		KeepFraction: 0.75,
		minActive:    2,
		maskedBuf:    make([]float64, dim),
		selIdx:       make([]int, dim),
	}
	for i := range s.Mask {
		s.Mask[i] = true
	}
	return s
}

// Dim returns the feature dimension.
func (s *STAFF) Dim() int { return s.rls.Dim() }

// masked returns x with inactive features zeroed, in persistent scratch:
// the underlying RLS reads the vector within the call and never retains
// it, so one buffer serves every Predict/Update.
func (s *STAFF) masked(x []float64) []float64 {
	mx := s.maskedBuf[:len(x)]
	for i, v := range x {
		if s.Mask[i] {
			mx[i] = v
		} else {
			mx[i] = 0
		}
	}
	return mx
}

// Predict returns the model output using only the active features.
func (s *STAFF) Predict(x []float64) float64 {
	return s.rls.Predict(s.masked(x))
}

// Update performs one adaptive iteration and returns the a-priori error.
func (s *STAFF) Update(x []float64, y float64) float64 {
	mx := s.masked(x)
	e := s.rls.Update(mx, y)

	// Adaptive forgetting: normalize the squared error by its running
	// variance; a burst of large normalized errors lowers lambda.
	s.errVar = s.beta*s.errVar + (1-s.beta)*e*e
	norm := 0.0
	if s.errVar > 1e-18 {
		norm = e * e / s.errVar
	}
	lam := s.LambdaMax - s.Sensitivity*(s.LambdaMax-s.LambdaMin)*math.Tanh(norm/4)
	s.rls.Lambda = mathx.Clamp(lam, s.LambdaMin, s.LambdaMax)

	// Stabilization: bound the covariance trace.
	if s.rls.TraceP() > s.MaxTrace {
		s.rls.Reset(s.MaxTrace / float64(s.Dim()))
	}

	// Track per-feature contribution for the selection step.
	for i := range x {
		c := math.Abs(s.rls.W[i] * x[i])
		s.contribution[i] = s.beta*s.contribution[i] + (1-s.beta)*c
	}
	if s.rls.Samples()%s.SelectEvery == 0 {
		s.reselect()
	}
	return e
}

// reselect keeps the KeepFraction highest-contribution features active.
func (s *STAFF) reselect() {
	d := s.Dim()
	keep := int(float64(d)*s.KeepFraction + 0.5)
	if keep < s.minActive {
		keep = s.minActive
	}
	if keep >= d {
		for i := range s.Mask {
			s.Mask[i] = true
		}
		return
	}
	// Threshold = keep-th largest contribution (simple selection, d small).
	idx := s.selIdx[:d]
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by contribution descending; d is tiny (<=16).
	for i := 1; i < d; i++ {
		j := i
		for j > 0 && s.contribution[idx[j-1]] < s.contribution[idx[j]] {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
	for i := range s.Mask {
		s.Mask[i] = false
	}
	for _, k := range idx[:keep] {
		s.Mask[k] = true
	}
}
