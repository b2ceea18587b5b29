package il

import (
	"fmt"

	"socrm/internal/control"
	"socrm/internal/counters"
	"socrm/internal/mlp"
	"socrm/internal/oracle"
	"socrm/internal/regtree"
	"socrm/internal/soc"
	"socrm/internal/workload"
)

// Dataset is an Oracle-labeled imitation-learning training set: raw state
// features paired with the Oracle's next-configuration (as normalized knob
// features).
type Dataset struct {
	X [][]float64 // control.State features
	Y [][]float64 // soc.Platform.AppendFeatures of the Oracle configuration
}

// BuildDataset reproduces the offline data collection of Section IV-A1:
// each training application is executed under the Oracle's per-snippet
// configurations, the Table I counters are recorded, and each state is
// labeled with the Oracle configuration of the following snippet.
func BuildDataset(p *soc.Platform, orc *oracle.Oracle, apps []workload.Application) Dataset {
	var ds Dataset
	for _, app := range apps {
		AppendDataset(&ds, p, app, orc.LabelApp(app))
	}
	return ds
}

// AppendDataset adds one application's Oracle-labeled samples to a dataset,
// reusing precomputed labels (Oracle sweeps are the expensive part, so
// experiment harnesses cache them).
func AppendDataset(ds *Dataset, p *soc.Platform, app workload.Application, labels []oracle.Label) {
	for k := 0; k+1 < len(app.Snippets); k++ {
		res := p.Execute(app.Snippets[k], labels[k].Cfg)
		st := control.State{
			Counters: res.Counters,
			Derived:  res.Counters.Derived(),
			Config:   labels[k].Cfg,
			Threads:  app.Snippets[k].Threads,
			App:      app.Name,
		}
		// Exact-capacity appends: the rows are retained by the dataset, but
		// nothing beyond them is allocated.
		ds.X = append(ds.X, st.AppendFeatures(make([]float64, 0, control.NumFeatures), p))
		ds.Y = append(ds.Y, p.AppendFeatures(make([]float64, 0, soc.NumConfigFeatures), labels[k+1].Cfg))
	}
}

// Policy maps a state feature vector to a configuration.
type Policy interface {
	Name() string
	PredictConfig(features []float64) soc.Config
}

// MLPPolicy is the neural-network policy of Section IV-A3 ("the policy is
// represented as a neural network and updated with back-propagation").
//
// PredictConfig reuses a per-policy input buffer (and the network's own
// scratch), so an MLPPolicy must not be shared by concurrent callers; hand
// each consumer its own Clone, as the serving layer does per session.
type MLPPolicy struct {
	Net    *mlp.Network
	Scaler *counters.Scaler
	P      *soc.Platform

	xbuf []float64 // scratch for the scaled PredictConfig input
}

// Name implements Policy.
func (m *MLPPolicy) Name() string { return "il-mlp" }

// Clone returns an independently trainable copy sharing the scaler (the
// scaler is read-only after fitting).
func (m *MLPPolicy) Clone() *MLPPolicy {
	return &MLPPolicy{Net: m.Net.Clone(), Scaler: m.Scaler, P: m.P}
}

// PredictConfig implements Policy.
func (m *MLPPolicy) PredictConfig(features []float64) soc.Config {
	if cap(m.xbuf) < len(features) {
		m.xbuf = make([]float64, len(features))
	}
	x := m.Scaler.TransformInto(m.xbuf[:len(features)], features)
	out := m.Net.Predict(x) // network scratch, safe to clamp in place
	for i, v := range out {
		if v < 0 {
			out[i] = 0
		} else if v > 1 {
			out[i] = 1
		}
	}
	return m.P.FromFeatures(out)
}

// The offline policy's training (Section IV-A1): two tanh hidden layers of
// 24 and 16 units, sized to fit comfortably in an OS governor (a few
// thousand parameters), trained mlpEpochs epochs at mlpLR with
// mlpMomentum. mlpSeed initializes the weights and mlpSeed+1 shuffles.
const (
	mlpEpochs           = 200
	mlpLR       float64 = 0.01
	mlpMomentum float64 = 0.9
	mlpSeed             = 7
)

// TrainMLPPolicy fits the neural policy on an Oracle-labeled dataset.
func TrainMLPPolicy(p *soc.Platform, ds Dataset) (*MLPPolicy, error) {
	if len(ds.X) == 0 {
		return nil, fmt.Errorf("il: empty dataset")
	}
	scaler := counters.FitScaler(ds.X)
	xs := scaler.TransformAll(ds.X)
	net := mlp.New(mlpSeed, mlp.Tanh, len(ds.X[0]), 24, 16, soc.NumConfigFeatures)
	net.TrainEpochs(xs, ds.Y, mlpEpochs, mlpLR, mlpMomentum, mlpSeed+1)
	return &MLPPolicy{Net: net, Scaler: scaler, P: p}, nil
}

// TreePolicy is the regression-tree policy variant of refs [18][19]: one
// tree per control knob.
type TreePolicy struct {
	Forest *regtree.Forest
	Scaler *counters.Scaler
	P      *soc.Platform
}

// Name implements Policy.
func (t *TreePolicy) Name() string { return "il-tree" }

// PredictConfig implements Policy.
func (t *TreePolicy) PredictConfig(features []float64) soc.Config {
	out := t.Forest.Predict(t.Scaler.Transform(features))
	for i, v := range out {
		if v < 0 {
			out[i] = 0
		} else if v > 1 {
			out[i] = 1
		}
	}
	return t.P.FromFeatures(out)
}

// TrainTreePolicy fits the tree policy, with regtree's default parameters,
// on an Oracle-labeled dataset.
func TrainTreePolicy(p *soc.Platform, ds Dataset) (*TreePolicy, error) {
	if len(ds.X) == 0 {
		return nil, fmt.Errorf("il: empty dataset")
	}
	scaler := counters.FitScaler(ds.X)
	xs := scaler.TransformAll(ds.X)
	forest, err := regtree.FitForest(xs, ds.Y, regtree.DefaultParams())
	if err != nil {
		return nil, err
	}
	return &TreePolicy{Forest: forest, Scaler: scaler, P: p}, nil
}

// OfflineDecider runs a frozen offline-trained policy in the control loop —
// the Table II configuration (no runtime adaptation).
type OfflineDecider struct {
	P      *soc.Platform
	Policy Policy

	// feat is the reused feature scratch; like the policies themselves, a
	// decider serves one control loop at a time — concurrent consumers get
	// their own instance (which every call site already does).
	feat []float64
}

// Name implements control.Decider.
func (d *OfflineDecider) Name() string { return "offline-" + d.Policy.Name() }

// Decide implements control.Decider.
func (d *OfflineDecider) Decide(st control.State) soc.Config {
	d.feat = st.AppendFeatures(d.feat[:0], d.P)
	return d.Policy.PredictConfig(d.feat)
}
