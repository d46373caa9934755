// Package exps is the experiment harness behind cmd/experiments and the
// repository benchmarks: it assembles the paper's evaluation matrix (11
// test programs × 6 file systems, §6.2) and regenerates each table and
// figure of §6.
package exps

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"sort"
	"strings"
	"sync"

	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/pfs/beegfs"
	"paracrash/internal/pfs/extfs"
	"paracrash/internal/pfs/glusterfs"
	"paracrash/internal/pfs/gpfs"
	"paracrash/internal/pfs/lustre"
	"paracrash/internal/pfs/orangefs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// FSNames lists the file systems under test, in the paper's order.
func FSNames() []string {
	return []string{"beegfs", "orangefs", "glusterfs", "gpfs", "lustre", "ext4"}
}

// NewFS builds a file system by name with the given configuration.
func NewFS(name string, conf pfs.Config, rec *trace.Recorder) (pfs.FileSystem, error) {
	switch name {
	case "beegfs":
		return beegfs.New(conf, rec), nil
	case "orangefs":
		return orangefs.New(conf, rec), nil
	case "glusterfs":
		return glusterfs.New(conf, rec), nil
	case "gpfs":
		return gpfs.New(conf, rec), nil
	case "lustre":
		return lustre.New(conf, rec), nil
	case "ext4":
		return extfs.New(conf, rec), nil
	default:
		return nil, fmt.Errorf("exps: unknown file system %q", name)
	}
}

// ConfigFor returns the paper's Table 2 deployment for a file system:
// BeeGFS, OrangeFS and Lustre run two metadata and two storage servers;
// GlusterFS and GPFS run two servers total; ext4 is a single node.
func ConfigFor(fsName string) pfs.Config {
	conf := pfs.DefaultConfig()
	switch fsName {
	case "glusterfs", "gpfs", "lustre-2srv":
		conf.MetaServers = 0
		conf.StorageServers = 2
	case "ext4":
		conf.MetaServers = 0
		conf.StorageServers = 1
	}
	return conf
}

// WithServers resizes a deployment to n servers in total; 0 keeps it. A
// backend with metadata servers splits them, n/2 metadata and the rest
// storage, and so needs at least two; any other backend runs n storage
// servers.
func WithServers(conf pfs.Config, n int) (pfs.Config, error) {
	switch {
	case n < 0:
		return conf, fmt.Errorf("servers must be >= 0 (0 = paper default), got %d", n)
	case n == 0:
	case conf.MetaServers == 0:
		conf.StorageServers = n
	case n < 2:
		return conf, fmt.Errorf("servers must be >= 2 on a backend with metadata servers, got %d", n)
	default:
		conf.MetaServers, conf.StorageServers = n/2, n-n/2
	}
	return conf, nil
}

// Program is one evaluation test program.
type Program struct {
	Name string
	// POSIX reports whether the program uses the POSIX client API directly
	// (no I/O library layer).
	POSIX bool
	// Placement pins files to storage servers (the paper's file
	// distribution that triggers the distribution-sensitive bugs).
	Placement map[string]int
	// GlusterPlacement overrides Placement on GlusterFS, whose striped
	// volume normally anchors every file on the first brick; only the WAL
	// program's distribution sensitivity applies there (paper bug #6).
	GlusterPlacement map[string]int
	// makePosix or makeH5 constructs the workload.
	makePosix func() paracrash.Workload
	makeH5    func(p workloads.H5Params) *workloads.H5Workload
}

// Make instantiates the workload and its library adapter (nil for POSIX).
func (pr Program) Make(p workloads.H5Params) (paracrash.Workload, paracrash.Library) {
	if pr.POSIX {
		return pr.makePosix(), nil
	}
	w := pr.makeH5(p)
	return w, w.Library()
}

// Programs returns the 11 test programs in the paper's order (Figure 8).
func Programs() []Program {
	return []Program{
		{Name: "ARVR", POSIX: true, makePosix: workloads.ARVR,
			Placement: map[string]int{"/foo": 0, "/tmp": 1}},
		{Name: "CR", POSIX: true, makePosix: workloads.CR},
		{Name: "RC", POSIX: true, makePosix: workloads.RC},
		{Name: "WAL", POSIX: true, makePosix: workloads.WAL,
			Placement:        map[string]int{"/foo": 0, "/log": 1},
			GlusterPlacement: map[string]int{"/foo": 0, "/log": 1}},
		{Name: "H5-create", makeH5: workloads.H5Create},
		{Name: "H5-delete", makeH5: workloads.H5Delete},
		{Name: "H5-rename", makeH5: workloads.H5Rename},
		{Name: "H5-resize", makeH5: workloads.H5Resize},
		{Name: "CDF-create", makeH5: workloads.CDFCreate},
		{Name: "H5-parallel-create", makeH5: workloads.H5ParallelCreate},
		{Name: "H5-parallel-resize", makeH5: workloads.H5ParallelResize},
	}
}

// ProgramNames lists the test programs' names, in the paper's order.
func ProgramNames() []string {
	var names []string
	for _, p := range Programs() {
		names = append(names, p.Name)
	}
	return names
}

// ProgramByName finds a program.
func ProgramByName(name string) (Program, error) {
	for _, p := range Programs() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return Program{}, fmt.Errorf("exps: unknown program %q", name)
}

// RunOne executes a single (program, file system) cell of the matrix.
func RunOne(fsName string, prog Program, opts paracrash.Options, h5p workloads.H5Params, conf pfs.Config) (*paracrash.Report, error) {
	return RunOneContext(context.Background(), fsName, prog, opts, h5p, conf)
}

// RunOneContext is RunOne with cancellation, for callers that bound a
// cell's wall time.
func RunOneContext(ctx context.Context, fsName string, prog Program, opts paracrash.Options, h5p workloads.H5Params, conf pfs.Config) (*paracrash.Report, error) {
	return Spec{FS: fsName, Program: prog, Options: opts, H5: h5p, Config: conf}.Run(ctx)
}

// Spec is one explore run: a cell of the matrix, the engine options, the H5
// knobs and the deployment. serve.JobRequest assembles one for a daemon job
// and for the paracrash command alike. Every entry point builds the stack
// the same way, which keeps the generation order, and with it a fleet's
// shard partition, identical across processes.
type Spec struct {
	FS      string
	Program Program
	Options paracrash.Options
	H5      workloads.H5Params
	Config  pfs.Config
}

// Run explores the spec.
func (s Spec) Run(ctx context.Context) (*paracrash.Report, error) {
	fs, w, lib, err := s.stack()
	if err != nil {
		return nil, err
	}
	return paracrash.RunContext(ctx, fs, lib, w, s.Options)
}

// RunShard judges one shard of the spec's crash-state space: a fleet
// worker's entry point.
func (s Spec) RunShard(ctx context.Context, shard paracrash.ShardSpec) (*paracrash.ShardReport, error) {
	fs, w, lib, err := s.stack()
	if err != nil {
		return nil, err
	}
	return paracrash.RunShard(ctx, fs, lib, w, s.Options, shard)
}

// Merge merges the spec's shard reports into the full report: the fleet
// coordinator's entry point, byte-identical (ReportFingerprint) to Run.
func (s Spec) Merge(ctx context.Context, shards []*paracrash.ShardReport) (*paracrash.Report, error) {
	fs, w, lib, err := s.stack()
	if err != nil {
		return nil, err
	}
	return paracrash.MergeShards(ctx, fs, lib, w, s.Options, shards)
}

// stack builds the spec's file system, with the program's placement hints
// overlaid on the config, and its workload. Placement hints do not apply to
// GlusterFS: its striped volume always places the first stripe on the
// first brick.
func (s Spec) stack() (pfs.FileSystem, paracrash.Workload, paracrash.Library, error) {
	placement, conf := s.Program.Placement, s.Config
	if s.FS == "glusterfs" {
		placement = s.Program.GlusterPlacement
	}
	if placement != nil {
		conf.FilePlacement = maps.Clone(conf.FilePlacement)
		if conf.FilePlacement == nil {
			conf.FilePlacement = map[string]int{}
		}
		maps.Copy(conf.FilePlacement, placement)
	}
	fs, err := NewFS(s.FS, conf, trace.NewRecorder())
	w, lib := s.Program.Make(s.H5)
	return fs, w, lib, err
}

// Cell is one Figure 8 matrix entry.
type Cell struct {
	Inconsistent int
	LibOnly      int
	Bugs         int
	Err          string
}

// Fig8Result is the Figure 8 matrix: inconsistent crash states per test
// program and file system, with the library-only counts (the line plots).
type Fig8Result struct {
	Programs []string
	FS       []string
	Cells    map[string]map[string]Cell // program -> fs -> cell
}

// cellKey names one cell of the evaluation matrix.
type cellKey struct{ prog, fs string }

// cellRun is one cell's outcome.
type cellRun struct {
	rep *paracrash.Report
	err error
}

// runMatrix runs every cell of the evaluation matrix. Every cell is an
// independent stack (its own recorder, servers and snapshots), so the cells
// run concurrently across the available cores.
func runMatrix(opts paracrash.Options, h5p workloads.H5Params) map[cellKey]cellRun {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	cells := map[cellKey]cellRun{}
	for _, prog := range Programs() {
		for _, fsName := range FSNames() {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; wg.Done() }()
				rep, err := RunOne(fsName, prog, opts, h5p, ConfigFor(fsName))
				mu.Lock()
				cells[cellKey{prog.Name, fsName}] = cellRun{rep, err}
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return cells
}

// Fig8 runs the full evaluation matrix.
func Fig8(opts paracrash.Options, h5p workloads.H5Params) *Fig8Result {
	res := &Fig8Result{FS: FSNames(), Cells: map[string]map[string]Cell{}}
	cells := runMatrix(opts, h5p)
	for _, prog := range Programs() {
		res.Programs = append(res.Programs, prog.Name)
		res.Cells[prog.Name] = map[string]Cell{}
		for _, fsName := range res.FS {
			run := cells[cellKey{prog.Name, fsName}]
			if run.err != nil {
				res.Cells[prog.Name][fsName] = Cell{Err: run.err.Error()}
				continue
			}
			res.Cells[prog.Name][fsName] = Cell{Inconsistent: run.rep.Inconsistent, LibOnly: run.rep.LibOnly, Bugs: len(run.rep.Bugs)}
		}
	}
	return res
}

// Format renders the Figure 8 matrix as a text table.
func (r *Fig8Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 8: number of inconsistent crash states (library-only in parentheses)\n\n")
	fmt.Fprintf(&b, "%-20s", "program")
	for _, fs := range r.FS {
		fmt.Fprintf(&b, "%12s", fs)
	}
	b.WriteString("\n")
	for _, prog := range r.Programs {
		fmt.Fprintf(&b, "%-20s", prog)
		for _, fs := range r.FS {
			c := r.Cells[prog][fs]
			if c.Err != "" {
				fmt.Fprintf(&b, "%12s", "err")
				continue
			}
			fmt.Fprintf(&b, "%9d(%d)", c.Inconsistent, c.LibOnly)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table3 aggregates the unique bugs of the whole matrix, grouped the way
// the paper's Table 3 presents them: kind, responsible layer, the affected
// file systems, the operation pair, and the consequence.
type Table3Row struct {
	Program     string
	Layer       string
	Kind        string
	FSes        []string
	OpA, OpB    string
	Consequence string
}

// Table3 runs the matrix and aggregates bugs across file systems in
// deterministic order.
func Table3(opts paracrash.Options, h5p workloads.H5Params) []Table3Row {
	cells := runMatrix(opts, h5p)
	byKey := map[string]*Table3Row{}
	var order []string
	for _, prog := range Programs() {
		for _, fsName := range FSNames() {
			run := cells[cellKey{prog.Name, fsName}]
			if run.err != nil {
				continue
			}
			for _, bug := range run.rep.Bugs {
				key := fmt.Sprintf("%s|%s|%s|%s|%s", prog.Name, bug.Layer, bug.Kind, stripServerIndex(bug.OpA), stripServerIndex(bug.OpB))
				row, ok := byKey[key]
				if !ok {
					row = &Table3Row{
						Program: prog.Name, Layer: bug.Layer, Kind: bug.Kind.String(),
						OpA: stripServerIndex(bug.OpA), OpB: stripServerIndex(bug.OpB),
						Consequence: bug.Consequence,
					}
					byKey[key] = row
					order = append(order, key)
				}
				row.FSes = append(row.FSes, fsName)
			}
		}
	}
	out := make([]Table3Row, 0, len(order))
	for _, k := range order {
		sort.Strings(byKey[k].FSes)
		out = append(out, *byKey[k])
	}
	return out
}

func stripServerIndex(sig string) string {
	if i := strings.LastIndexByte(sig, '#'); i >= 0 {
		return sig[:i]
	}
	return sig
}

// FormatTable3 renders the aggregated bug list.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: crash-consistency bugs discovered (aggregated across file systems)\n\n")
	for i, r := range rows {
		arrow := "->"
		if r.Kind == "atomicity" {
			arrow = "+"
		}
		fmt.Fprintf(&b, "%2d. [%s] %-18s %-10s %s %s %s\n", i+1, r.Layer, r.Program, r.Kind,
			r.OpA, arrow, r.OpB)
		fmt.Fprintf(&b, "    file systems: %s\n", strings.Join(r.FSes, ", "))
		fmt.Fprintf(&b, "    consequence:  %s\n", r.Consequence)
	}
	return b.String()
}

// Fig10Row is one (program, fs, mode) timing measurement.
type Fig10Row struct {
	Program string
	FS      string
	Mode    paracrash.Mode
	Seconds float64
	Stats   paracrash.Stats
	Bugs    int
}

// Fig10 measures the exploration strategies on the user-level file systems
// (paper Figure 10: brute-force vs pruning on BeeGFS, OrangeFS, GlusterFS;
// the paper's third, TSP-ordered strategy is not reproduced, see DESIGN.md).
func Fig10(h5p workloads.H5Params) []Fig10Row {
	var out []Fig10Row
	for _, fsName := range []string{"beegfs", "orangefs", "glusterfs"} {
		for _, prog := range Programs() {
			for _, mode := range []paracrash.Mode{paracrash.ModeBrute, paracrash.ModePruning} {
				opts := paracrash.DefaultOptions()
				opts.Mode = mode
				rep, err := RunOne(fsName, prog, opts, h5p, ConfigFor(fsName))
				if err != nil {
					continue
				}
				out = append(out, Fig10Row{
					Program: prog.Name, FS: fsName, Mode: mode,
					Seconds: rep.Stats.Duration.Seconds(), Stats: rep.Stats, Bugs: len(rep.Bugs),
				})
			}
		}
	}
	return out
}

// FormatFig10 renders the Figure 10 comparison.
func FormatFig10(rows []Fig10Row) string {
	var b strings.Builder
	b.WriteString("Figure 10: exploration time by strategy (seconds; states checked / pruned / server restores)\n\n")
	cur := ""
	for _, r := range rows {
		if r.FS != cur {
			cur = r.FS
			fmt.Fprintf(&b, "--- %s ---\n", r.FS)
		}
		fmt.Fprintf(&b, "%-20s %-12s %8.4fs  checked=%-5d pruned=%-5d restores=%-6d bugs=%d\n",
			r.Program, r.Mode, r.Seconds, r.Stats.StatesChecked, r.Stats.StatesPruned, r.Stats.ServerRestores, r.Bugs)
	}
	return b.String()
}

// Fig11Row is one scalability measurement.
type Fig11Row struct {
	Program string
	FS      string
	Servers int
	Mode    paracrash.Mode
	Seconds float64
	States  int
	Bugs    int
}

// Fig11 measures scalability in the number of servers (paper Figure 11:
// HDF5 programs on BeeGFS, OrangeFS, GlusterFS with 4–32 servers; the
// stripe size shrinks as servers grow so files split into more chunks).
// Crash emulation uses end-of-execution fronts, keeping the pruning
// exploration linear while brute-force cut enumeration grows exponentially.
func Fig11(serverCounts []int, h5p workloads.H5Params) []Fig11Row {
	var out []Fig11Row
	progs := []string{"H5-create", "H5-delete", "H5-rename", "H5-resize"}
	for _, fsName := range []string{"beegfs", "orangefs", "glusterfs"} {
		for _, progName := range progs {
			prog, _ := ProgramByName(progName)
			for _, n := range serverCounts {
				conf, err := WithServers(ConfigFor(fsName), n)
				if err != nil {
					continue
				}
				// Shrink the stripe as servers grow (paper: 128KB at 4
				// servers down to 16KB at 32).
				conf.StripeSize = 128 * 4 / int64(n)
				if conf.StripeSize < 16 {
					conf.StripeSize = 16
				}
				opts := paracrash.DefaultOptions()
				opts.Emulator.FrontMode = paracrash.FrontEnd
				rep, err := RunOne(fsName, prog, opts, h5p, conf)
				if err != nil {
					continue
				}
				out = append(out, Fig11Row{
					Program: progName, FS: fsName, Servers: n,
					Mode: opts.Mode, Seconds: rep.Stats.Duration.Seconds(),
					States: rep.Stats.StatesChecked, Bugs: len(rep.Bugs),
				})
			}
		}
	}
	return out
}

// FormatFig11 renders the scalability table.
func FormatFig11(rows []Fig11Row) string {
	var b strings.Builder
	b.WriteString("Figure 11: scalability with the number of servers (pruning exploration)\n\n")
	fmt.Fprintf(&b, "%-12s %-20s %8s %10s %8s %6s\n", "fs", "program", "servers", "seconds", "states", "bugs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-20s %8d %10.4f %8d %6d\n", r.FS, r.Program, r.Servers, r.Seconds, r.States, r.Bugs)
	}
	return b.String()
}

// SpeedupResult holds the §6.4 headline numbers on ARVR/BeeGFS: crash
// state counts and reconstruction effort of the two strategies. The states
// are those judged (StatesChecked + StatesDeduped: pruning is what shrinks
// them); seconds and restores are the runs' own, class memo included.
type SpeedupResult struct {
	BruteStates, PrunedStates     int
	BruteSeconds, PrunedSeconds   float64
	BruteRestores, PrunedRestores int
	BruteBugs, PrunedBugs         int
}

// fingerprintStats are the Stats a ReportFingerprint covers: the trace and
// state counts, which every path through one configuration must reproduce.
type fingerprintStats struct {
	TraceOps, LowermostOps                    int
	StatesGenerated, StatesChecked            int
	StatesDeduped, StateClasses, StatesPruned int
}

// ReportFingerprint canonicalises a report for equality comparison across
// serial, parallel, sharded and resumed runs: verdicts and state
// counts (generated, checked, deduped, pruned, classes), but not the
// quantities those paths legitimately change — wall-clock Duration and the
// measured effort (restores, op replays, the legal-set sizes actually
// enumerated, verdicts resumed from a journal).
func ReportFingerprint(rep *paracrash.Report) string {
	st := rep.Stats
	stats := fingerprintStats{
		TraceOps: st.TraceOps, LowermostOps: st.LowermostOps,
		StatesGenerated: st.StatesGenerated, StatesChecked: st.StatesChecked,
		StatesDeduped: st.StatesDeduped, StateClasses: st.StateClasses, StatesPruned: st.StatesPruned,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%+v|%d|%d\n", rep.Program, rep.FS, rep.Mode, stats, rep.Inconsistent, rep.LibOnly)
	for _, st := range rep.States {
		fmt.Fprintf(&b, "S %+v\n", st)
	}
	for _, sk := range rep.Skipped {
		fmt.Fprintf(&b, "K %+v\n", sk)
	}
	for _, bug := range rep.Bugs {
		fmt.Fprintf(&b, "B %+v\n", *bug)
	}
	return b.String()
}

// ReportKernel canonicalises a report's verdict content only — program,
// file system, mode, counts, inconsistent states, quarantined states and
// bugs — leaving out Stats entirely. It is the comparison core of the
// engine's per-state reference suite: the engine and a walk that judges
// every state on its own legitimately differ in effort (StatesChecked,
// StatesDeduped, ServerRestores, …) but must agree on everything the
// kernel covers.
func ReportKernel(rep *paracrash.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%d|%d\n", rep.Program, rep.FS, rep.Mode, rep.Inconsistent, rep.LibOnly)
	for _, st := range rep.States {
		fmt.Fprintf(&b, "S %+v\n", st)
	}
	for _, sk := range rep.Skipped {
		fmt.Fprintf(&b, "K %+v\n", sk)
	}
	for _, bug := range rep.Bugs {
		fmt.Fprintf(&b, "B %+v\n", *bug)
	}
	return b.String()
}

// Speedups measures the two strategies on one (program, fs) pair.
func Speedups(fsName, progName string, h5p workloads.H5Params) (*SpeedupResult, error) {
	prog, err := ProgramByName(progName)
	if err != nil {
		return nil, err
	}
	run := func(mode paracrash.Mode) (*paracrash.Report, error) {
		opts := paracrash.DefaultOptions()
		opts.Mode = mode
		return RunOne(fsName, prog, opts, h5p, ConfigFor(fsName))
	}
	brute, err := run(paracrash.ModeBrute)
	if err != nil {
		return nil, err
	}
	pruned, err := run(paracrash.ModePruning)
	if err != nil {
		return nil, err
	}
	judged := func(st paracrash.Stats) int { return st.StatesChecked + st.StatesDeduped }
	return &SpeedupResult{
		BruteStates: judged(brute.Stats), PrunedStates: judged(pruned.Stats),
		BruteSeconds: brute.Stats.Duration.Seconds(), PrunedSeconds: pruned.Stats.Duration.Seconds(),
		BruteRestores: brute.Stats.ServerRestores, PrunedRestores: pruned.Stats.ServerRestores,
		BruteBugs: len(brute.Bugs), PrunedBugs: len(pruned.Bugs),
	}, nil
}
