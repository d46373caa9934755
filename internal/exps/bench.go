package exps

import (
	"encoding/json"
	"fmt"
	"time"

	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// BenchRecord is one row of the BENCH_*.json trajectory: a (program, fs,
// mode) run with its end-of-run Stats and the observability summary (phase
// timings, counters, gauges). Successive PRs append files with the same
// shape, so effort regressions show up as counter/timer diffs.
type BenchRecord struct {
	Program string `json:"program"`
	FS      string `json:"fs"`
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	// Representative records whether the cell ran with representative-state
	// exploration (recovered-content equivalence classes); the trajectory
	// keeps one brute-force contrast cell with it off so the
	// StatesChecked/StatesDeduped drop is visible inside a single file.
	Representative bool    `json:"representative"`
	Seconds        float64 `json:"seconds"`
	// StatesPerSec is the verdict throughput: states covered per second,
	// counting both reconstructed representatives and class-attributed
	// members (Stats.StatesChecked + Stats.StatesDeduped over Seconds).
	StatesPerSec float64 `json:"states_per_sec"`
	// RestoresPerState is the reconstruction amortisation: server restores
	// charged per covered state. The reconstructor pays one restore per
	// *changed* server, so a full rebuild per state would read as the server
	// count here.
	RestoresPerState float64         `json:"restores_per_state"`
	Bugs             int             `json:"bugs"`
	Stats            paracrash.Stats `json:"stats"`
	Obs              *obs.Summary    `json:"obs"`
	Err              string          `json:"error,omitempty"`
}

// FleetBenchRecord is the fleet cell of the BENCH_*.json trajectory: a
// coordinator + N workers + M tenants storm driven end to end through the
// HTTP API by the load generator (internal/serve.RunLoad). It measures the
// service path — admission control, fair scheduling, shard dispatch, lease
// claims and the merge — where BenchRecord measures the bare engine.
type FleetBenchRecord struct {
	// Workers is the fleet's worker-process count; Tenants the number of
	// distinct API keys the load rotates through; Shards the partition
	// width each job requests.
	Workers int `json:"workers"`
	Tenants int `json:"tenants"`
	Shards  int `json:"shards"`
	// Jobs/Concurrency describe the storm; Done/Failed/Rejected its
	// outcome (Rejected counts retried 429 pushback, not failures).
	Jobs        int `json:"jobs"`
	Concurrency int `json:"concurrency"`
	Done        int `json:"done"`
	Failed      int `json:"failed"`
	Rejected    int `json:"rejected"`
	// Seconds is the storm's wall clock; JobsPerSec the headline
	// throughput the benchgate budgets.
	Seconds    float64 `json:"seconds"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	// P50/P95/P99 are submit-to-terminal latency percentiles in seconds.
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Err string  `json:"error,omitempty"`
}

// BenchSummary is the whole BENCH_*.json document.
type BenchSummary struct {
	GeneratedAt time.Time     `json:"generated_at"`
	Records     []BenchRecord `json:"records"`
	// Fleet is the coordinator/worker/tenant throughput cell, filled by
	// callers with access to the service layer (cmd/experiments wires
	// serve.BenchFleet in); older trajectory files simply omit it.
	Fleet *FleetBenchRecord `json:"fleet,omitempty"`
}

// benchCell is one row of the fixed benchmark trajectory.
type benchCell struct {
	fs, prog string
	mode     paracrash.Mode
	workers  int
	norep    bool
	// fast marks the cells of the quick `make benchgate` subset: the
	// headline ARVR/BeeGFS cell plus one cheap contrast per axis, enough
	// to catch a hot-path regression in seconds.
	fast bool
}

// benchCells is the fixed benchmark trajectory: the §6.4 strategy contrast
// on ARVR/BeeGFS plus one representative cell per remaining file system.
// The first cells differ only in the representative-exploration knob, so
// every BENCH_*.json carries its own brute-force baseline for the
// class-attribution savings.
var benchCells = []benchCell{
	{"beegfs", "ARVR", paracrash.ModeBrute, 1, true, false}, // exhaustive baseline
	{"beegfs", "ARVR", paracrash.ModeBrute, 1, false, true},
	{"beegfs", "ARVR", paracrash.ModeBrute, 0, false, true}, // parallel, one worker per CPU
	{"beegfs", "ARVR", paracrash.ModePruning, 1, false, false},
	{"beegfs", "ARVR", paracrash.ModeOptimized, 1, false, false},
	{"orangefs", "CR", paracrash.ModePruning, 1, false, false},
	{"glusterfs", "WAL", paracrash.ModePruning, 1, false, false},
	{"gpfs", "H5-create", paracrash.ModePruning, 1, false, false},
	{"lustre", "H5-resize", paracrash.ModePruning, 1, false, false},
	{"ext4", "CR", paracrash.ModePruning, 1, false, true},
}

// benchReps is how many times each cell runs; the fastest run's duration
// is reported. A cell takes single-digit milliseconds, so a one-shot
// measurement is dominated by process warm-up (allocator growth, first-GC)
// noise — every run of a cell is deterministic and does identical work, so
// the minimum duration is the cell's actual steady-state throughput.
const benchReps = 5

// Bench runs the full benchmark trajectory with observability enabled and
// returns the summary document. Each cell gets its own obs run, so the
// per-cell phase timings and counters are independent; the obs summary
// kept is the fastest repetition's. Optional sinks receive every cell's
// metrics through the telemetry pipeline (see BenchCells).
func Bench(h5p workloads.H5Params, sinks ...obs.MetricSink) *BenchSummary {
	sum, _ := BenchCells(h5p, "all", sinks...)
	return sum
}

// BenchCells runs the named subset of the benchmark trajectory: "all"
// (every cell) or "fast" (the quick benchgate subset). Each finished
// cell's best-run metrics are routed through the telemetry pipeline to the
// given sinks — the cell's counters, gauges and timers under a
// program/fs/mode job label, plus the derived bench/states-per-sec and
// bench/restores-per-state gauges the regression gate budgets.
func BenchCells(h5p workloads.H5Params, subset string, sinks ...obs.MetricSink) (*BenchSummary, error) {
	var cells []benchCell
	switch subset {
	case "all":
		cells = benchCells
	case "fast":
		for _, c := range benchCells {
			if c.fast {
				cells = append(cells, c)
			}
		}
	default:
		return nil, fmt.Errorf("exps: unknown bench cell subset %q (want all or fast)", subset)
	}

	sum := &BenchSummary{GeneratedAt: time.Now().UTC()}
	for _, cell := range cells {
		prog, err := ProgramByName(cell.prog)
		if err != nil {
			sum.Records = append(sum.Records, BenchRecord{Program: cell.prog, FS: cell.fs, Err: err.Error()})
			continue
		}
		rec := BenchRecord{
			Program: cell.prog, FS: cell.fs,
			Mode: cell.mode.String(), Workers: cell.workers,
			Representative: !cell.norep,
		}
		var best *paracrash.Report
		var bestObs *obs.Run
		for i := 0; i < benchReps; i++ {
			run := obs.NewRun()
			opts := paracrash.DefaultOptions()
			opts.Mode = cell.mode
			opts.Workers = cell.workers
			opts.DisableRepresentative = cell.norep
			opts.Obs = run
			rep, err := RunOne(cell.fs, prog, opts, h5p, ConfigFor(cell.fs))
			if err != nil {
				rec.Err = err.Error()
				break
			}
			if best == nil || rep.Stats.Duration < best.Stats.Duration {
				best, bestObs = rep, run
			}
		}
		if best != nil && rec.Err == "" {
			rec.Seconds = best.Stats.Duration.Seconds()
			rec.Bugs = len(best.Bugs)
			rec.Stats = best.Stats
			if rec.Seconds > 0 {
				rec.StatesPerSec = float64(best.Stats.StatesChecked+best.Stats.StatesDeduped) / rec.Seconds
			}
			if covered := best.Stats.StatesChecked + best.Stats.StatesDeduped; covered > 0 {
				rec.RestoresPerState = float64(best.Stats.ServerRestores) / float64(covered)
			}
			rec.Obs = bestObs.Summary()
			emitBenchCell(rec, bestObs, sinks)
		}
		sum.Records = append(sum.Records, rec)
	}
	return sum, nil
}

// emitBenchCell publishes one finished cell's metrics through a telemetry
// router to the attached sinks: the best repetition's collector under the
// cell's job label, plus the derived throughput gauges the benchgate
// budgets. A cell with no sinks costs nothing.
func emitBenchCell(rec BenchRecord, run *obs.Run, sinks []obs.MetricSink) {
	if len(sinks) == 0 {
		return
	}
	label := fmt.Sprintf("%s/%s/%s/workers=%d", rec.Program, rec.FS, rec.Mode, rec.Workers)
	router := obs.NewRouter()
	router.Attach(label, obs.CollectorFunc(func(dst []obs.Metric) []obs.Metric {
		dst = run.CollectMetrics(dst)
		return append(dst,
			obs.Metric{Name: "bench/states-per-sec", Kind: obs.KindGauge, Value: rec.StatesPerSec},
			obs.Metric{Name: "bench/restores-per-state", Kind: obs.KindGauge, Value: rec.RestoresPerState},
			obs.Metric{Name: "bench/seconds", Kind: obs.KindGauge, Value: rec.Seconds},
		)
	}))
	for _, s := range sinks {
		router.AddSink(s)
	}
	router.Publish()
	router.Close()
}

// JSON renders the summary indented for the BENCH_*.json file.
func (s *BenchSummary) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
