package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"taurus/internal/dataset"
	"taurus/internal/distfit"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/model"
	"taurus/internal/trafficgen"
)

// gateMergedGraph is the distfit merge-accept gate: the distributed fit's
// merged graph is a push candidate, so it must verify statically and be
// structurally identical to the sequential reference before byte parity is
// even consulted.
func gateMergedGraph(round int, gRef, gDist *mr.Graph) error {
	if err := graphcheck.Check(gDist); err != nil {
		return fmt.Errorf("distfit round %d: merged graph rejected: %w", round, err)
	}
	if err := graphcheck.Compatible(gRef, gDist); err != nil {
		return fmt.Errorf("distfit round %d: merged graph diverged structurally: %w", round, err)
	}
	return nil
}

// DistFitScaleRow is one configuration of the distributed-retrain scaling
// sweep: a fixed record pool refit over a worker count, with and without
// the fault injector.
type DistFitScaleRow struct {
	Workers int
	// Faults reports whether the fault injector ran: one worker killed and
	// replaced per round, plus one deliberate straggler task per round
	// forcing a deadline re-issue.
	Faults bool
	// RecordsPerSec is the aggregate map-phase throughput.
	RecordsPerSec float64
	// RoundMillis is the mean wall-clock time of one retrain round.
	RoundMillis float64
	// ReissuedTasks is the total number of deadline-triggered task
	// re-executions across the configuration's rounds.
	ReissuedTasks int
}

// DistFitRow is one round of the fault-injected drift-recovery loop.
type DistFitRow struct {
	Round int
	// Phase is the drift phase of this round's traffic.
	Phase float64
	// SingleF1 scores the model retrained by plain single-process Fit.
	SingleF1 float64
	// DistF1 scores the model retrained by the fault-injected distributed
	// coordinator.
	DistF1 float64
	// GraphParity reports whether this round's distributed merge lowered to
	// a graph byte-identical to the sequential reference merge over the
	// same chunk schedule — the bit-reproducibility acceptance check.
	GraphParity bool
	// ReissuedTasks is the cumulative re-execution count.
	ReissuedTasks int
	// LiveWorkers is the worker-pool size during this round's map phase.
	LiveWorkers int
}

// DistFitResult bundles the scaling sweep and the drift-recovery loop.
type DistFitResult struct {
	Scale  []DistFitScaleRow `json:"scale"`
	Rounds []DistFitRow      `json:"rounds"`
}

// straggleFitter wraps a PartialFitter with the fault injector's straggler:
// when armed, the next PartialFit call sleeps past the coordinator's task
// deadline before delegating, forcing a re-issue and a first-write-wins
// duplicate discard. The delegated computation is untouched, so the
// injected fault cannot move a single bit of the merged model.
type straggleFitter struct {
	model.PartialFitter
	mu      sync.Mutex
	delay   time.Duration
	pending int
}

func (f *straggleFitter) arm(n int) {
	f.mu.Lock()
	f.pending = n
	f.mu.Unlock()
}

func (f *straggleFitter) PartialFit(recs []dataset.Record) (model.Partial, error) {
	f.mu.Lock()
	straggle := f.pending > 0
	if straggle {
		f.pending--
	}
	f.mu.Unlock()
	if straggle {
		time.Sleep(f.delay)
	}
	return f.PartialFitter.PartialFit(recs)
}

// distFitDNN builds one warm anomaly DNN; every call with the same seed
// yields a bit-identical model, so the sweep's configurations and the drift
// loop's three regimes all start from the same weights. A ReLU net this
// narrow can come up dead on an unlucky init seed — every hidden unit
// stuck, constant output that no amount of SGD revives — so the init is
// restarted with a derived seed until the warm-trained net actually
// discriminates. The restart schedule is a pure function of seed, keeping
// the result bit-reproducible.
func distFitDNN(seed int64, warm []dataset.Record) (*model.DNN, error) {
	for attempt := 0; attempt < 8; attempt++ {
		initSeed := seed + int64(attempt)*1000003
		net := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(initSeed)))
		d, err := model.NewDNN(net, model.DNNConfig{Epochs: 10, Seed: seed})
		if err != nil {
			return nil, err
		}
		// Three deployment-time fits, like the drift harness.
		for i := 0; i < 3; i++ {
			if err := d.Fit(warm); err != nil {
				return nil, err
			}
		}
		lo, hi := d.Score(warm[0].Features), d.Score(warm[0].Features)
		for _, r := range warm[1:] {
			s := d.Score(r.Features)
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
		if hi-lo > 1e-6 {
			return d, nil
		}
	}
	return nil, fmt.Errorf("experiments: no live DNN init within 8 restarts of seed %d", seed)
}

// killFirstLive kills the lowest-id live worker — the fault injector's
// per-round crash.
func killFirstLive(c *distfit.Coordinator) {
	for _, w := range c.Workers() {
		if !w.Dead() {
			w.Kill()
			return
		}
	}
}

const (
	// The deadline must comfortably clear an honest chunk's compute time
	// even with every worker contending for cores (else fault-free rounds
	// re-issue), while the injected straggler sleeps far past it so its
	// re-issue is deterministic.
	distFitChunk    = 512
	distFitDeadline = 150 * time.Millisecond
	distFitStraggle = 450 * time.Millisecond
	distFitRounds   = 20
	distFitRetrain  = 2048
)

// DistFitTable runs the distributed-retrain experiment in two parts.
//
// The scaling sweep refits one fixed pool across worker counts 1/2/4/8,
// fault-free and fault-injected (one worker crash-and-replace plus one
// straggler re-issue per round), reporting map-phase throughput and the
// re-execution counts.
//
// The drift-recovery loop then drives twenty retrain rounds over a
// drifting workload three ways from one shared warm model: a plain
// single-process Fit loop, the distributed coordinator with the fault
// injector killing one of its four workers every round, and a sequential
// reference that folds the identical chunk schedule in-process. Every
// round, the distributed model's lowered graph is compared byte-for-byte
// against the reference merge (GraphParity) — fault tolerance must not
// move a bit — while the single-process loop's F1 tracks how much the
// federated merge semantics cost against exact SGD under drift.
func DistFitTable(seed int64) (*DistFitResult, string, error) {
	res := &DistFitResult{}

	// Part 1: scaling sweep over a fixed pre-drift pool.
	gen, err := trafficgen.NewDriftingStream(dataset.DefaultDriftConfig(), seed, 256)
	if err != nil {
		return nil, "", err
	}
	warm := gen.Labelled(3000)
	pool := gen.Labelled(4096)
	const sweepRounds = 3
	for _, workers := range []int{1, 2, 4, 8} {
		for _, faults := range []bool{false, true} {
			dep, err := distFitDNN(seed, warm)
			if err != nil {
				return nil, "", err
			}
			sf := &straggleFitter{PartialFitter: dep, delay: distFitStraggle}
			coord, err := distfit.New(sf, distfit.Config{
				Workers: workers, ChunkSize: distFitChunk, TaskDeadline: distFitDeadline,
			})
			if err != nil {
				return nil, "", err
			}
			start := time.Now()
			for r := 0; r < sweepRounds; r++ {
				if faults {
					killFirstLive(coord)
					coord.AddWorker() // crash-and-replace keeps the pool size
					sf.arm(1)
				}
				if err := coord.Fit(pool); err != nil {
					coord.Close()
					return nil, "", err
				}
			}
			elapsed := time.Since(start)
			st := coord.Stats()
			coord.Close()
			res.Scale = append(res.Scale, DistFitScaleRow{
				Workers:       workers,
				Faults:        faults,
				RecordsPerSec: float64(sweepRounds*len(pool)) / elapsed.Seconds(),
				RoundMillis:   float64(elapsed.Milliseconds()) / sweepRounds,
				ReissuedTasks: st.ReissuedTasks,
			})
		}
	}

	// Part 2: fault-injected drift-recovery loop vs the single-process
	// baseline and the sequential reference merge.
	stream, err := trafficgen.NewDriftingStream(dataset.DefaultDriftConfig(), seed+1, 256)
	if err != nil {
		return nil, "", err
	}
	init := stream.Labelled(3000)
	single, err := distFitDNN(seed, init)
	if err != nil {
		return nil, "", err
	}
	dist, err := distFitDNN(seed, init)
	if err != nil {
		return nil, "", err
	}
	ref, err := distFitDNN(seed, init)
	if err != nil {
		return nil, "", err
	}
	inQ := model.InputQuantizerFor(init)
	sf := &straggleFitter{PartialFitter: dist, delay: distFitStraggle}
	coord, err := distfit.New(sf, distfit.Config{
		Workers: 4, ChunkSize: distFitChunk, TaskDeadline: distFitDeadline,
	})
	if err != nil {
		return nil, "", err
	}
	defer coord.Close()

	f1 := func(m model.Deployable, eval []dataset.Record) float64 {
		var conf ml.BinaryConfusion
		for _, r := range eval {
			conf.Observe(m.Score(r.Features) >= 0.5, r.Anomalous())
		}
		return conf.F1()
	}
	for r := 0; r < distFitRounds; r++ {
		phase := float64(r) / 12
		if phase > 1 {
			phase = 1
		}
		stream.SetPhase(phase)
		labels := stream.Labelled(distFitRetrain) // one tee: all three regimes train on it

		// Fault injection: one of the four workers crashes mid-fleet, one
		// task straggles past the deadline; the pool is replenished after
		// the round.
		killFirstLive(coord)
		sf.arm(1)
		live := coord.Stats().LiveWorkers
		if err := coord.Fit(labels); err != nil {
			return nil, "", err
		}
		coord.AddWorker()

		// Sequential reference: the same chunk schedule folded in-process.
		var parts []model.Partial
		for lo := 0; lo < len(labels); lo += distFitChunk {
			hi := lo + distFitChunk
			if hi > len(labels) {
				hi = len(labels)
			}
			p, err := ref.PartialFit(labels[lo:hi])
			if err != nil {
				return nil, "", err
			}
			parts = append(parts, p)
		}
		if err := ref.Merge(parts); err != nil {
			return nil, "", err
		}
		if err := single.Fit(labels); err != nil {
			return nil, "", err
		}

		gDist, err := dist.Lower(inQ)
		if err != nil {
			return nil, "", err
		}
		gRef, err := ref.Lower(inQ)
		if err != nil {
			return nil, "", err
		}
		if err := gateMergedGraph(r, gRef, gDist); err != nil {
			return nil, "", err
		}
		eval := stream.Labelled(600)
		res.Rounds = append(res.Rounds, DistFitRow{
			Round:         r,
			Phase:         phase,
			SingleF1:      f1(single, eval),
			DistF1:        f1(dist, eval),
			GraphParity:   bytes.Equal(mr.Encode(gDist), mr.Encode(gRef)),
			ReissuedTasks: coord.Stats().ReissuedTasks,
			LiveWorkers:   live,
		})
	}

	var scale [][]string
	for _, row := range res.Scale {
		scale = append(scale, []string{
			fmt.Sprintf("%d", row.Workers),
			fmt.Sprintf("%v", row.Faults),
			fmt.Sprintf("%.0f", row.RecordsPerSec),
			fmt.Sprintf("%.1f", row.RoundMillis),
			fmt.Sprintf("%d", row.ReissuedTasks),
		})
	}
	var rounds [][]string
	for _, row := range res.Rounds {
		rounds = append(rounds, []string{
			fmt.Sprintf("%d", row.Round),
			fmt.Sprintf("%.2f", row.Phase),
			fmt.Sprintf("%.1f", row.SingleF1),
			fmt.Sprintf("%.1f", row.DistF1),
			fmt.Sprintf("%v", row.GraphParity),
			fmt.Sprintf("%d", row.ReissuedTasks),
			fmt.Sprintf("%d", row.LiveWorkers),
		})
	}
	text := table("Distributed retrain: map-phase scaling (3 rounds x 4096 records)",
		[]string{"workers", "faults", "rec/s", "round-ms", "reissued"}, scale) +
		"\n" +
		table("Fault-injected drift recovery (kill 1 of 4 workers/round)",
			[]string{"round", "phase", "single-F1", "dist-F1", "graph-parity", "reissued", "live"}, rounds)
	return res, text, nil
}
