package main

import (
	"fmt"
	"math"
	"time"

	"sqm/internal/bgw"
	"sqm/internal/core"
	"sqm/internal/dataset"
	"sqm/internal/dp"
	"sqm/internal/linalg"
	"sqm/internal/logreg"
	"sqm/internal/obs"
	"sqm/internal/pca"
	"sqm/internal/quant"
	"sqm/internal/randx"
)

// parties is the BGW party count P of every workload.
const parties = 4

// telemetry is what a traced session attaches through the public
// Recorder/Trace fields; the zero value is an untraced session.
type telemetry struct {
	rec *spanRecorder
	tc  *obs.TraceContext
}

// recorder returns the session's obs.Recorder (nil when untraced, so the
// program takes its disabled path).
func (t telemetry) recorder() obs.Recorder {
	if t.rec == nil {
		return nil
	}
	return t.rec
}

// setupTimes splits one set-up. total is what setup_s reports; the
// parts feed the per-layer set-up figures. quant is a separate timed
// quant.Matrix call standing in for each constructor's internal
// quantization (quantCalls of them).
type setupTimes struct {
	total, calibrate, quant, ctor time.Duration
	quantCalls                    int
	stats                         bgw.Stats // input-sharing counters, must repeat exactly
}

// opOut is what one op reports back to the loop.
type opOut struct {
	tr      *core.Trace
	batch   int           // Poisson batch size (training), 0 for releases
	release time.Duration // wall-clock of the pca.SQM call (releases only)
}

// session is one set-up instance of a workload: it runs ops one at a
// time, then replays every op it ran on core.EnginePlain.
type session interface {
	step() (opOut, error)
	// verify returns the indexes of recorded ops (set-up ops included)
	// whose opened values differ from the plain engine's.
	verify() ([]int, error)
	close() error
}

// workload is one paper-shaped benchmark workload over generated inputs.
type workload struct {
	name string
	why  string
	// rounds is the plan shape every op must show: 3 for a covariance
	// release, 5 for an lr3 step.
	rounds int64
	// draws is the Skellam draw count of one op (dims × clients).
	draws int64
	// perOpSetup marks workloads whose every op repeats calibration and
	// quantization (a release); training ops reuse the set-up.
	perOpSetup bool
	open       func(tel telemetry) (session, setupTimes, error)
}

// workloadNames lists every workload the program runs.
var workloadNames = []string{"pca-release", "lr3-train-mono"}

// newWorkload generates the inputs of the named workload from seed.
// smoke shrinks every shape so the whole path runs in well under a
// second.
func newWorkload(name string, seed uint64, smoke bool) (*workload, error) {
	switch name {
	case "pca-release":
		m, n, k := 500, 64, 8
		if smoke {
			m, n, k = 100, 8, 2
		}
		return pcaRelease(m, n, k, seed), nil
	case "lr3-train-mono":
		m, d, q := 2000, 8, 0.128
		if smoke {
			m, d, q = 100, 4, 0.1
		}
		return lr3TrainMono(m, d, q, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// protoSeed derives the program's seed from the workload seed, apart
// from the data generator's.
func protoSeed(seed uint64) uint64 { return seed*0x9e3779b97f4a7c15 + 0x5eed }

// timeCall runs f and returns its wall-clock.
func timeCall(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// timeQuant times one quant.Matrix call over the workload's matrix.
func timeQuant(x *linalg.Matrix, gamma float64, seed uint64) time.Duration {
	return timeCall(func() { quant.Matrix(x, gamma, randx.New(seed), nil) })
}

// ---- pca-release ----

func pcaRelease(m, n, k int, seed uint64) *workload {
	x := dataset.KDDCupLike(m, n, seed).X
	base := pca.Config{
		K: k, Eps: 1, Delta: 1e-5, C: 1, Gamma: 1 << 8,
		Engine: core.EngineActorBGWNet, Parties: parties, Seed: protoSeed(seed),
	}
	pairs := int64(n) * int64(n+1) / 2
	w := &workload{
		name:       "pca-release",
		why:        "bandwidth and compute bound: 3 rounds, ~133K Skellam draws, a 64x64 fused-dot level, MB-scale TCP reshares and the eigensolver per release",
		rounds:     3,
		draws:      pairs * int64(n), // one noise client per attribute
		perOpSetup: true,
	}
	w.open = func(tel telemetry) (session, setupTimes, error) {
		cfg := base
		cfg.Recorder, cfg.Trace = tel.recorder(), tel.tc
		s := &pcaSession{x: x, cfg: cfg}
		var st setupTimes
		var err error
		st.calibrate = timeCall(func() { _, err = pca.CalibrateMu(cfg.Eps, cfg.Delta, cfg.Gamma, cfg.C, n) })
		if err != nil {
			return nil, st, err
		}
		st.quant = timeQuant(x, cfg.Gamma, cfg.Seed)
		// Set-up is the session's first release, kept out of the timed
		// ops; in a set-up process it is the cold first release.
		var out opOut
		st.total = timeCall(func() { out, err = s.step() })
		if err != nil {
			return nil, st, err
		}
		// A release has no constructor: its mesh dial and input sharing
		// are part of every op, so core.setup_share_s reads 0.
		st.stats = out.tr.Stats
		return s, st, nil
	}
	return w
}

// pcaSession runs one pca.SQM release per op, each under its own seed
// as an analyst's successive releases would be.
type pcaSession struct {
	x     *linalg.Matrix
	cfg   pca.Config
	seeds []uint64
	subs  []*linalg.Matrix
	utils []float64
}

func (s *pcaSession) step() (opOut, error) {
	cfg := s.cfg
	cfg.Seed = s.cfg.Seed + uint64(len(s.seeds))
	var r *pca.Result
	var err error
	release := timeCall(func() { r, err = pca.SQM(s.x, cfg) })
	if err != nil {
		return opOut{}, err
	}
	s.seeds = append(s.seeds, cfg.Seed)
	s.subs = append(s.subs, r.Subspace)
	s.utils = append(s.utils, r.Utility)
	return opOut{tr: r.Trace, release: release}, nil
}

// verify reruns each release on the plain engine: the opened covariance
// is bit-identical, so the extracted subspace must be too.
func (s *pcaSession) verify() ([]int, error) {
	var bad []int
	for i, seed := range s.seeds {
		cfg := s.cfg
		cfg.Engine, cfg.Recorder, cfg.Trace, cfg.Seed = core.EnginePlain, nil, nil, seed
		r, err := pca.SQM(s.x, cfg)
		if err != nil {
			return bad, fmt.Errorf("plain release %d: %w", i, err)
		}
		if !sameFloats(r.Subspace.Data, s.subs[i].Data) || !sameFloats([]float64{r.Utility}, []float64{s.utils[i]}) {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

func (s *pcaSession) close() error { return nil }

// ---- lr3-train-mono ----

// trainShape is the data and hyper-parameters of the training workload.
type trainShape struct {
	x      *linalg.Matrix
	y      []float64
	cfg    logreg.Config
	params core.Params // everything but Mu, which set-up calibrates
}

// build constructs the order-3 protocol on the given params.
func (sh *trainShape) build(p core.Params) (*core.LR3Protocol, error) {
	return core.NewLR3Protocol(sh.x, sh.y, p, 0)
}

func acsData(m, d int, seed uint64) (*linalg.Matrix, []float64, error) {
	ds, err := dataset.ACSIncomeLike("CA", m, 0, d, seed)
	if err != nil {
		return nil, nil, err
	}
	return ds.X, ds.Labels, nil
}

func lr3TrainMono(m, d int, q float64, seed uint64) (*workload, error) {
	x, y, err := acsData(m, d, seed)
	if err != nil {
		return nil, err
	}
	sh := &trainShape{
		x: x, y: y,
		cfg: logreg.Config{Eps: 1, Delta: 1e-5, Gamma: 64, Epochs: 5, SampleRate: q},
		params: core.Params{
			Gamma: 64, Engine: core.EngineBGW, Parties: parties, NumClients: parties, Seed: protoSeed(seed),
		},
	}
	w := &workload{
		name:   "lr3-train-mono",
		why:    "depth-5 plan on the monolithic engine with no mesh, goroutines or sockets: isolates executor arithmetic, allocation and field kernels",
		rounds: 5,
		draws:  int64(d) * parties,
	}
	w.open = func(tel telemetry) (session, setupTimes, error) {
		var st setupTimes
		var mu float64
		var err error
		var tr *core.LR3Protocol
		st.quant = timeQuant(x, sh.cfg.Gamma, sh.params.Seed)
		st.quantCalls = 2
		// As logreg.TrainSQMOrder3: a probe protocol yields the
		// sensitivity, then the calibrated protocol is rebuilt.
		st.total = timeCall(func() {
			var probe *core.LR3Protocol
			st.ctor = timeCall(func() { probe, err = sh.build(sh.params) })
			if err != nil {
				return
			}
			d2, d1 := probe.Sensitivity()
			if err = probe.Close(); err != nil {
				return
			}
			st.calibrate = timeCall(func() {
				mu, err = dp.CalibrateSkellamMu(sh.cfg.Eps, sh.cfg.Delta, d1, d2, sh.cfg.SampleRate, sh.cfg.Rounds())
			})
			if err != nil {
				return
			}
			p := sh.params
			p.Mu, p.Recorder, p.Trace = mu, tel.recorder(), tel.tc
			st.ctor += timeCall(func() { tr, err = sh.build(p) })
		})
		if err != nil {
			return nil, st, err
		}
		return newTrainSession(sh, tr, mu), st, nil
	}
	return w, nil
}

// learnRate is the trainers' default step size on the mean gradient.
const learnRate = 0.5

// trainSession runs DP-SGD steps as logreg.TrainSQMOrder3 does: Poisson batch,
// noisy gradient sum, then the public weight update and clipping.
type trainSession struct {
	sh      *trainShape
	tr      *core.LR3Protocol
	mu      float64
	w       []float64
	batches []int
	outs    [][]int64
}

// initWeights mirrors the trainers' initial weights.
func initWeights(d int, seed uint64) []float64 {
	w := randx.New(seed^0x5e4d).GaussianVec(d, 0.1)
	linalg.ClipNorm(w, 1)
	return w
}

func newTrainSession(sh *trainShape, tr *core.LR3Protocol, mu float64) *trainSession {
	return &trainSession{sh: sh, tr: tr, mu: mu, w: initWeights(sh.x.Cols, sh.params.Seed)}
}

// sgdStep runs one DP-SGD step of tr on the weights w, updating them.
func (sh *trainShape) sgdStep(tr *core.LR3Protocol, w []float64) ([]int, *core.Trace, error) {
	batch := tr.SampleBatch(sh.cfg.SampleRate)
	grad, t, err := tr.GradientSum(w, batch)
	if err != nil {
		return nil, nil, err
	}
	linalg.Axpy(-learnRate/(sh.cfg.SampleRate*float64(sh.x.Rows)), grad, w)
	linalg.ClipNorm(w, 1)
	return batch, t, nil
}

func (s *trainSession) step() (opOut, error) {
	batch, t, err := s.sh.sgdStep(s.tr, s.w)
	if err != nil {
		return opOut{}, err
	}
	s.batches = append(s.batches, len(batch))
	s.outs = append(s.outs, t.Scaled)
	return opOut{tr: t, batch: len(batch)}, nil
}

// verify replays the session's steps on a plain-engine protocol built
// from the same seed and noise: batches, weights and opened gradient
// sums must match step for step.
func (s *trainSession) verify() ([]int, error) {
	p := s.sh.params
	p.Mu, p.Engine = s.mu, core.EnginePlain
	plain, err := s.sh.build(p)
	if err != nil {
		return nil, fmt.Errorf("plain protocol: %w", err)
	}
	defer plain.Close()
	w := initWeights(s.sh.x.Cols, s.sh.params.Seed)
	var bad []int
	for i, want := range s.outs {
		batch, t, err := s.sh.sgdStep(plain, w)
		if err != nil {
			return bad, fmt.Errorf("plain step %d: %w", i, err)
		}
		if len(batch) != s.batches[i] || !sameInts(t.Scaled, want) {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

func (s *trainSession) close() error { return s.tr.Close() }

// sameFloats reports whether a and b hold bit-identical values.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameInts reports whether a and b are equal element for element.
func sameInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
