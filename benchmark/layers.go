package main

import (
	"os"
	"strconv"
	"strings"

	"paracrash/internal/causality"
	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

const (
	// maxSampledStates bounds the crash states per cell the harness replays
	// through pfs.FileSystem; they are taken at a fixed stride over the
	// generation order, so the sample is the same on every run.
	maxSampledStates = 64
	// maxReplaysPerState bounds the legal library states replayed per
	// sampled crash state.
	maxReplaysPerState = 8
)

// storeKind names the lowermost store a backend's servers keep their state
// in: kernel-level backends sit on blockdev, user-level ones on vfs.
func storeKind(fs string) string {
	if fs == "gpfs" || fs == "lustre" {
		return "blockdev"
	}
	return "vfs"
}

// layerAcc collects, over one traced pass, the counts that spans do not
// carry: effort statistics of each report, the engine's own phase timers and
// the sizes the probes see.
type layerAcc struct {
	counts map[string]float64
	kinds  map[string]string // cell key -> store kind
}

func newLayerAcc() *layerAcc {
	return &layerAcc{counts: map[string]float64{}, kinds: map[string]string{}}
}

func (a *layerAcc) add(name string, v float64) { a.counts[name] += v }

func (a *layerAcc) max(name string, v float64) {
	if v > a.counts[name] {
		a.counts[name] = v
	}
}

// obsTimers maps the engine's passive timers onto metric names.
var obsTimers = map[string]string{
	"phase/" + obs.PhaseTrace:    "phase.trace_ms",
	"phase/" + obs.PhaseGraph:    "phase.graph_ms",
	"phase/" + obs.PhaseGenerate: "phase.generate_ms",
	"phase/" + obs.PhaseExplore:  "phase.explore_ms",
	"pfs/restore-all":            "obs.pfs_restore_ms",
	"pfs/restore-server":         "obs.pfs_restore_ms",
	"pfs/mount":                  "obs.pfs_mount_ms",
	"pfs/recover":                "obs.pfs_recover_ms",
}

func (a *layerAcc) addReport(rep *paracrash.Report, sum *obs.Summary) {
	st := rep.Stats
	a.add("engine.states_generated", float64(st.StatesGenerated))
	a.add("engine.states_checked", float64(st.StatesChecked))
	a.add("engine.states_deduped", float64(st.StatesDeduped))
	a.add("engine.states_pruned", float64(st.StatesPruned))
	a.add("engine.state_classes", float64(st.StateClasses))
	a.add("engine.server_restores", float64(st.ServerRestores))
	a.add("engine.ops_replayed", float64(st.OpsReplayed))
	a.max("engine.legal_pfs_states", float64(st.LegalPFSStates))
	a.max("engine.legal_lib_states", float64(st.LegalLibStates))
	for _, t := range sum.Timers {
		if name, ok := obsTimers[t.Name]; ok {
			a.add(name, t.Seconds*1e3)
		}
	}
}

// probeCell walks the pipeline for one cell by hand, through the public
// functions of each layer, with a span around every call. It mirrors what
// paracrash.RunContext does for the cell (preamble, snapshot, traced run,
// graph, emulation) and then replays a fixed-stride sample of the generated
// crash states through reconstruct -> recover -> mount -> serialise ->
// digest and through legal-state enumeration.
func probeCell(c *cell, tr *tracer, parent int, acc *layerAcc) error {
	key, kind := c.key(), storeKind(c.FS)
	acc.kinds[key] = kind
	probe, endProbe := tr.start("probe", key, parent)
	defer endProbe()
	timed := func(name string, fn func()) {
		_, end := tr.start(name, key, probe)
		fn()
		end()
	}

	var (
		fs  pfs.FileSystem
		w   paracrash.Workload
		lib paracrash.Library
		err error
	)
	rec := trace.NewRecorder()
	timed("pfs.new", func() {
		fs, w, lib, err = c.stack(rec)
		if err != nil {
			return
		}
		rec.SetEnabled(false)
		err = w.Preamble(fs)
	})
	if err != nil {
		return err
	}
	var initial *pfs.State
	timed("pfs.snapshot", func() { initial = fs.Snapshot() })
	if lib != nil {
		t, err := fs.Mount()
		if err != nil {
			return err
		}
		if err := lib.Seed(t); err != nil {
			return err
		}
	}
	timed("trace.record", func() {
		rec.Reset()
		rec.SetEnabled(true)
		err = w.Run(fs)
		rec.SetEnabled(false)
	})
	if err != nil {
		return err
	}
	ops := rec.Ops()

	var g *causality.Graph
	timed("causality.build", func() { g = causality.Build(ops) })
	emu := paracrash.NewEmulator(g, fs.PersistConfig())
	timed("causality.persist_order", func() { causality.NewPersistOrder(g, emu.Universe, fs.PersistConfig()) })
	acc.add("trace.ops", float64(len(ops)))
	acc.add("trace.lowermost_ops", float64(len(emu.Universe)))
	acc.add("causality.nodes", float64(g.Len()))

	// Algorithm 1/2 with a counting visitor; every stride-th state is kept.
	opts := c.options(nil)
	emuCfg := opts.Emulator
	if c.Mode != paracrash.ModeBrute {
		// The pruning modes' semantic victim filter (paper §5.3).
		emuCfg.VictimFilter = func(op *trace.Op) bool { return !strings.HasPrefix(op.Tag, "h5:data") }
	}
	counters := obs.NewRun()
	emu.Obs = counters
	var sample []paracrash.CrashState
	stride, n := 1, 0
	timed("emulate.generate", func() {
		emu.Generate(emuCfg, func(cs paracrash.CrashState) bool {
			if n%stride == 0 {
				sample = append(sample, cs)
				if len(sample) > maxSampledStates {
					// Thin the sample to every second state and double the stride.
					for i := 0; 2*i < len(sample); i++ {
						sample[i] = sample[2*i]
					}
					sample = sample[:(len(sample)+1)/2]
					stride *= 2
				}
			}
			n++
			return true
		})
	})
	acc.add("emulate.states", float64(n))
	acc.add("emulate.fronts", float64(counters.Summary().Counters["emulate/fronts"]))

	pfsOps := paracrash.NewLayerOps(g, trace.LayerPFS, nil)
	var libOps *paracrash.LayerOps
	if lib != nil {
		libOps = paracrash.NewLayerOps(g, trace.LayerIOLib, lib.IsLibOp)
	}
	for _, cs := range sample {
		timed("pfs.restore", func() { fs.Restore(initial) })
		applied := 0
		timed("pfs.apply", func() {
			for _, i := range emu.Universe {
				if cs.Keep.Get(i) {
					_ = fs.ApplyLowermost(g.Ops[i]) // a lost op is part of the crash state
					applied++
				}
			}
		})
		acc.add("apply_ops", float64(applied))
		acc.add("apply_ops."+kind, float64(applied))
		var rerr error
		timed("pfs.recover", func() { rerr = fs.Recover() })
		if rerr != nil {
			continue // an unrecoverable state has nothing to mount
		}
		var tree *pfs.Tree
		timed("pfs.mount", func() { tree, rerr = fs.Mount() })
		if rerr != nil {
			continue
		}
		var treeStr string
		timed("pfs.serialize", func() { treeStr = tree.Serialize() })
		timed("paracrash.digest", func() { paracrash.StateDigest("pfs", treeStr) })
		if lib == nil {
			timed("models.preserved_sets", func() {
				pfsOps.PreservedSets(opts.PFSModel, pfsOps.StatusAgainst(cs.Front), opts.MaxLegalStates, func([]int) bool { return true })
			})
			continue
		}
		timed("stack.state", func() { _, _ = lib.StateFromTree(tree) }) // unreadable is a verdict, not a failure
		var sets [][]int
		timed("models.preserved_sets", func() {
			libOps.PreservedSets(opts.LibModel, libOps.StatusAgainst(cs.Front), opts.MaxLegalStates, func(sel []int) bool {
				if len(sets) < maxReplaysPerState {
					sets = append(sets, append([]int(nil), sel...))
				}
				return true
			})
		})
		for _, sel := range sets {
			selOps := make([]*trace.Op, len(sel))
			for i, pos := range sel {
				selOps[i] = libOps.Ops[pos]
			}
			timed("stack.replay", func() { _, _ = lib.Replay(selOps) })
		}
	}
	fs.Restore(initial)
	return nil
}

// stack builds the cell's file system, workload and library adapter the way
// exps.RunOneContext does: the program's placement hints overlaid on the
// backend's deployment.
func (c *cell) stack(rec *trace.Recorder) (pfs.FileSystem, paracrash.Workload, paracrash.Library, error) {
	conf := c.conf
	if c.gen == nil {
		placement := c.prog.Placement
		if c.FS == "glusterfs" {
			placement = c.prog.GlusterPlacement
		}
		if placement != nil {
			conf.FilePlacement = placement
		}
	}
	fs, err := exps.NewFS(c.FS, conf, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	if c.gen != nil {
		return fs, c.gen, nil, nil
	}
	w, lib := c.prog.Make(workloads.DefaultH5Params())
	return fs, w, lib, nil
}

// metrics turns one traced pass's spans and counts into the per-layer
// metrics. Times of calls made once per cell are summed over the pass (ms);
// times of calls made per crash state are the median call (us).
func (a *layerAcc) metrics(spans []span) map[string]float64 {
	durs := map[string][]float64{} // span name -> durations, us
	byKind := map[string][]float64{}
	for _, s := range spans {
		d := float64(s.EndNs-s.StartNs) / 1e3
		durs[s.Name] = append(durs[s.Name], d)
		byKind[a.kinds[s.Cell]+"/"+s.Name] = append(byKind[a.kinds[s.Cell]+"/"+s.Name], d)
	}
	m := map[string]float64{}
	for k, v := range a.counts {
		if !strings.HasPrefix(k, "apply_ops") {
			m[k] = v
		}
	}
	totalMs := func(name string) float64 { return sum(durs[name]) / 1e3 }

	m["pfs.new_ms"] = totalMs("pfs.new")
	m["pfs.snapshot_us"] = median(durs["pfs.snapshot"])
	m["trace.record_ms"] = totalMs("trace.record")
	m["causality.build_ms"] = totalMs("causality.build")
	m["causality.persist_order_ms"] = totalMs("causality.persist_order")
	m["emulate.generate_ms"] = totalMs("emulate.generate")
	m["emulate.us_per_state"] = ratio(sum(durs["emulate.generate"]), a.counts["emulate.states"])
	m["models.preserved_sets_ms"] = totalMs("models.preserved_sets")
	m["stack.replay_us"] = median(durs["stack.replay"])
	m["stack.state_us"] = median(durs["stack.state"])
	m["paracrash.run_ms"] = totalMs("paracrash.run")

	for _, kind := range []string{"pfs", "vfs", "blockdev"} {
		pick := func(name string) []float64 {
			if kind == "pfs" {
				return durs[name]
			}
			return byKind[kind+"/"+name]
		}
		applied := a.counts["apply_ops"]
		digest := "paracrash.digest_us"
		if kind != "pfs" {
			applied = a.counts["apply_ops."+kind]
			digest = kind + ".digest_us"
		}
		m[kind+".restore_us"] = median(pick("pfs.restore"))
		m[kind+".apply_us_per_op"] = ratio(sum(pick("pfs.apply")), applied)
		m[kind+".recover_us"] = median(pick("pfs.recover"))
		m[kind+".mount_us"] = median(pick("pfs.mount"))
		m[kind+".serialize_us"] = median(pick("pfs.serialize"))
		m[digest] = median(pick("paracrash.digest"))
	}

	named := m["obs.pfs_restore_ms"] + m["obs.pfs_mount_ms"] + m["obs.pfs_recover_ms"]
	if explore := m["phase.explore_ms"]; explore > 0 {
		m["explore.unattributed_share"] = 1 - named/explore
	}
	m["engine.checked_share"] = ratio(m["engine.states_checked"], m["engine.states_generated"])
	m["engine.restores_per_state"] = ratio(m["engine.server_restores"], m["engine.states_generated"])
	return m
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
