package experiments

import (
	"fmt"
	"time"

	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/pipeline"
	"taurus/internal/trafficgen"
)

// ThroughputRow is one shard-count point of the traffic-plane scaling
// experiment.
type ThroughputRow struct {
	Shards int
	// ModelMpps is the modelled drain rate of a batch: every shard's
	// MapReduce block accepts one packet per II cycles at 1 GHz, shards in
	// parallel, so the busiest shard bounds the batch.
	ModelMpps float64
	// WallMpps is the host-measured software simulation rate (diagnostic:
	// it depends on the machine, not the modelled hardware).
	WallMpps float64
	// MaxShardShare is the busiest shard's fraction of the batch (0.125 is
	// perfect balance at 8 shards).
	MaxShardShare float64
}

// Throughput sweeps the sharded traffic plane across shard counts with the
// anomaly DNN installed: the v1 API's packets/sec scaling story.
func Throughput(m *Models) ([]ThroughputRow, string, error) {
	const (
		flows     = 512
		batchSize = 4096
		rounds    = 8
	)
	// One packet per flow, reused across the batch; features ride along.
	ins, out, err := trafficgen.AnomalyBatch(7, batchSize, flows)
	if err != nil {
		return nil, "", err
	}

	var rows []ThroughputRow
	var cells [][]string
	for _, shards := range []int{1, 2, 4, 8, 16} {
		pl, err := pipeline.New(pipeline.Config{Shards: shards, Device: core.DefaultConfig(6)})
		if err != nil {
			return nil, "", err
		}
		if err := pl.LoadModel(m.DNNGraph, m.DNN.InputQ, compiler.Options{}); err != nil {
			pl.Close()
			return nil, "", err
		}
		// Warm up, then measure.
		if _, err := pl.ProcessBatch(ins, out); err != nil {
			pl.Close()
			return nil, "", err
		}
		var bs pipeline.BatchStats
		start := time.Now()
		for r := 0; r < rounds; r++ {
			bs, err = pl.ProcessBatch(ins, out)
			if err != nil {
				pl.Close()
				return nil, "", err
			}
		}
		wall := time.Since(start)

		maxShare := 0.0
		total := 0
		maxProcessed := 0
		for _, ss := range pl.ShardStats() {
			total += ss.Processed
			if ss.Processed > maxProcessed {
				maxProcessed = ss.Processed
			}
		}
		if total > 0 {
			maxShare = float64(maxProcessed) / float64(total)
		}
		pl.Close()

		row := ThroughputRow{
			Shards:        shards,
			ModelMpps:     bs.ModelPacketsPerSec() / 1e6,
			WallMpps:      float64(rounds*batchSize) / wall.Seconds() / 1e6,
			MaxShardShare: maxShare,
		}
		rows = append(rows, row)
		cells = append(cells, []string{
			fmt.Sprintf("%d", row.Shards),
			fmt.Sprintf("%.0f", row.ModelMpps),
			fmt.Sprintf("%.2f", row.WallMpps),
			fmt.Sprintf("%.3f", row.MaxShardShare),
		})
	}
	return rows, table("Traffic plane: modelled packets/sec vs shard count (DNN, II=1)",
		[]string{"Shards", "Model Mpps", "Sim Mpps", "Max shard share"}, cells), nil
}
