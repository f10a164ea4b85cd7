// Round-trip parity: after a controller retrain+push of each model family,
// every pipeline shard's verdicts must be bit-identical to the Deployable's
// quantised reference decision — the contract that lets the control plane
// audit the data plane.
package model_test

import (
	"math/rand"
	"testing"

	"taurus/internal/compiler"
	"taurus/internal/controlplane"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/ml"
	"taurus/internal/model"
	"taurus/internal/pipeline"
	"taurus/internal/trafficgen"
)

type parityCase struct {
	name      string
	newModel  func(t *testing.T) model.Deployable
	newStream func(t *testing.T) *trafficgen.DriftingStream
	features  int
	threshold int32
}

func parityCases(t *testing.T) []parityCase {
	t.Helper()
	return []parityCase{
		{
			name: "dnn",
			newModel: func(t *testing.T) model.Deployable {
				net := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(21)))
				d, err := model.NewDNN(net, model.DNNConfig{Epochs: 8, Seed: 21})
				if err != nil {
					t.Fatal(err)
				}
				return d
			},
			newStream: func(t *testing.T) *trafficgen.DriftingStream {
				s, err := trafficgen.NewDriftingStream(dataset.DefaultDriftConfig(), 21, 96)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			features:  6,
			threshold: 64,
		},
		{
			name: "svm",
			newModel: func(t *testing.T) model.Deployable {
				s, err := model.NewSVM(model.SVMConfig{MaxSV: 12, Seed: 22})
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			newStream: func(t *testing.T) *trafficgen.DriftingStream {
				cfg := dataset.DriftConfig{Base: dataset.AnomalyConfig{
					NumFeatures: dataset.NumSVMFeatures, AnomalyFraction: 0.4, Separation: 1.2,
				}}
				s, err := trafficgen.NewDriftingStream(cfg, 22, 96)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			features:  8,
			threshold: 1,
		},
		{
			name: "kmeans",
			newModel: func(t *testing.T) model.Deployable {
				k, err := model.NewKMeans(model.KMeansConfig{K: 5, Seed: 23})
				if err != nil {
					t.Fatal(err)
				}
				return k
			},
			newStream: func(t *testing.T) *trafficgen.DriftingStream {
				s, err := trafficgen.NewDriftingIoTStream(dataset.DefaultIoTDriftConfig(), 23, 96)
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			features:  11,
			threshold: 1 << 30, // classification: never flag
		},
	}
}

func TestRetrainPushParity(t *testing.T) {
	const shards = 4
	for _, c := range parityCases(t) {
		t.Run(c.name, func(t *testing.T) {
			stream := c.newStream(t)
			dep := c.newModel(t)

			// Deployment: fit on pre-drift telemetry, calibrate the input
			// domain from it, lower, install on every shard.
			recs := stream.Labelled(800)
			inQ := model.InputQuantizerFor(recs)
			if err := dep.Fit(recs); err != nil {
				t.Fatal(err)
			}
			g, err := dep.Lower(inQ)
			if err != nil {
				t.Fatal(err)
			}
			devCfg := core.DefaultConfig(c.features)
			devCfg.Threshold = c.threshold
			pl, err := pipeline.New(pipeline.Config{Shards: shards, Device: devCfg})
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()
			if err := pl.LoadModel(g, inQ, compiler.Options{}); err != nil {
				t.Fatal(err)
			}

			// Drift the world, then run one controller retrain+push cycle.
			stream.SetPhase(1)
			cfg := controlplane.DefaultConfig()
			cfg.RetrainRecords = 600
			ctrl, err := controlplane.New(pl, dep, inQ, stream.Labelled, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ctrl.RetrainNow(); err != nil {
				t.Fatal(err)
			}
			if got := ctrl.Stats().Retrains; got != 1 {
				t.Fatalf("retrains = %d, want 1", got)
			}

			// Every packet's data-plane score must equal the model's
			// quantised reference decision, on every shard.
			ins, out, _ := stream.NextBatch(768)
			if _, err := pl.ProcessBatch(ins, out); err != nil {
				t.Fatal(err)
			}
			checked := 0
			for i := range out {
				if out[i].Bypassed {
					continue
				}
				want, err := dep.ReferenceDecision(inQ, ins[i].Features)
				if err != nil {
					t.Fatal(err)
				}
				if out[i].MLScore != want {
					t.Fatalf("packet %d: data plane score %d != reference %d", i, out[i].MLScore, want)
				}
				wantVerdict := core.Forward
				if out[i].MLScore >= c.threshold {
					wantVerdict = core.Flag
				}
				if out[i].Verdict != wantVerdict {
					t.Fatalf("packet %d: verdict %v inconsistent with score %d (threshold %d)",
						i, out[i].Verdict, out[i].MLScore, c.threshold)
				}
				checked++
			}
			if checked < 700 {
				t.Fatalf("only %d packets reached the model", checked)
			}
			// The batch must have exercised every shard.
			for s, st := range pl.ShardStats() {
				if st.MLInferences == 0 {
					t.Errorf("shard %d served no inferences — parity not proven there", s)
				}
			}
		})
	}
}

// TestRetrainNowAllocationLedger pins what one retrain round — 512 labelled
// records, Fit, Lower, verify, push to four shards — costs the heap. Nothing
// in it is per sample any more: what is left is the graph the round builds
// and the checks on it.
func TestRetrainNowAllocationLedger(t *testing.T) {
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	net := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(32)))
	dep, err := model.NewDNN(net, model.DNNConfig{Epochs: 8, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	recs := gen.Records(2000)
	inQ := model.InputQuantizerFor(recs)
	if err := dep.Fit(recs); err != nil {
		t.Fatal(err)
	}
	g, err := dep.Lower(inQ)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := pipeline.New(pipeline.Config{Shards: 4, Device: core.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if err := pl.LoadModel(g, inQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	cfg := controlplane.DefaultConfig()
	cfg.RetrainRecords = 512
	ctrl, err := controlplane.New(pl, dep, inQ, gen.Records, cfg)
	if err != nil {
		t.Fatal(err)
	}
	retrain := func() {
		if err := ctrl.RetrainNow(); err != nil {
			t.Fatal(err)
		}
	}
	retrain()
	if allocs := testing.AllocsPerRun(3, retrain); allocs > 4000 {
		t.Errorf("RetrainNow (512 records, 4 shards): %v mallocs, want <= 4000", allocs)
	}
}
