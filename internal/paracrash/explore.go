package paracrash

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"paracrash/internal/causality"
	"paracrash/internal/obs"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

// Workload is a test program: a preamble that builds the initial storage
// state (untraced) and the traced test body (paper §5: "a preamble program
// that initializes the storage system and a test program that runs next").
type Workload interface {
	Name() string
	// Preamble initialises the storage system; it runs with tracing off.
	Preamble(fs pfs.FileSystem) error
	// Run executes the traced test body.
	Run(fs pfs.FileSystem) error
}

// Library abstracts the parallel I/O library layer (HDF5, NetCDF) for
// cross-layer checking.
type Library interface {
	// Name returns the library name used in attribution ("hdf5", "netcdf").
	Name() string
	// IsLibOp selects this library's operations among LayerIOLib trace ops.
	IsLibOp(o *trace.Op) bool
	// Seed captures the library's initial on-PFS state (after the
	// preamble) so Replay can start from it.
	Seed(t *pfs.Tree) error
	// StateFromTree parses the library's files out of a mounted PFS tree
	// and returns a canonical logical state. An error means the state is
	// unreadable (corrupt).
	StateFromTree(t *pfs.Tree) (string, error)
	// RecoverTree applies the library's recovery tools (e.g. h5clear) to
	// the tree, returning the repaired tree and whether anything changed.
	RecoverTree(t *pfs.Tree) (*pfs.Tree, bool)
	// Replay re-executes the given library ops on a fresh copy of the
	// seeded state and returns the canonical logical state: LegalState of
	// Apply folded over ops from Start.
	Replay(ops []*trace.Op) (string, error)

	// Start returns the replay state of the seeded image before any op.
	// Replay states are values: Apply returns a new state and leaves the one
	// it is given untouched, so a walk can branch from any of them.
	Start() any
	// Apply returns st with op replayed on it. An op whose prerequisites st
	// lacks is lost, as in a crash.
	Apply(st any, op *trace.Op) any
	// Digest identifies a replay state: states with equal digests reach
	// equal states under every sequence of further ops.
	Digest(st any) string
	// LegalState persists a copy of st and returns its canonical logical
	// state.
	LegalState(st any) (string, error)
}

// Mode selects the crash-state exploration strategy (paper §5 and §6.4).
// Both modes visit the crash states in generation order.
type Mode int

const (
	// ModeBrute reconstructs and checks every generated crash state.
	ModeBrute Mode = iota
	// ModePruning skips crash states matching already-identified bug
	// scenarios and applies semantic (object-map) victim pruning.
	ModePruning
)

// retiredMode names the mode that visited pruning's crash states along a
// greedy TSP tour. Every reconstruction restores every server, so the tour
// saved nothing and was removed.
const retiredMode = "optimized"

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeBrute:
		return "brute-force"
	case ModePruning:
		return "pruning"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// MarshalText renders the mode by name.
func (m Mode) MarshalText() ([]byte, error) {
	return []byte(m.String()), nil
}

// UnmarshalText parses a stored mode name, inverting MarshalText so
// persisted reports round-trip (see storedMode).
func (m *Mode) UnmarshalText(text []byte) error {
	parsed, err := storedMode(string(text))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// ParseMode parses an exploration-strategy name ("brute" and "brute-force"
// are synonyms). It is the one list of mode names the CLIs and the job
// service accept; the retired "optimized" is refused by name.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "brute", "brute-force":
		return ModeBrute, nil
	case "pruning":
		return ModePruning, nil
	case retiredMode:
		return 0, fmt.Errorf("paracrash: mode %q is retired (it was pruning in another visiting order); use pruning", s)
	default:
		return 0, fmt.Errorf("paracrash: unknown mode %q (want brute or pruning)", s)
	}
}

// storedMode is ParseMode for names read back from stored data: a persisted
// Report.Mode, or the mode of a stored job request or shard task. It reads
// the retired "optimized" as pruning, whose crash states it judged, so data
// written before the retirement still loads.
func storedMode(s string) (Mode, error) {
	if s == retiredMode {
		return ModePruning, nil
	}
	return ParseMode(s)
}

// Options configures a testing run.
type Options struct {
	Mode Mode
	// PFSModel is the consistency model the PFS is tested against (the
	// paper uses causal for every PFS).
	PFSModel Model
	// LibModel is the model the I/O library is tested against (the paper
	// uses baseline and causal).
	LibModel Model
	// Emulator bounds (victims, fronts, caps). Its VictimFilter is ignored:
	// the run derives the filter from Mode.
	Emulator EmulatorConfig
	// MaxLegalStates caps legal-state enumeration per crash front. An
	// enumeration it cuts short counts once on the legal/pfs-capped or
	// legal/lib-capped counter.
	MaxLegalStates int

	// Workers is accepted and ignored: exploration is serial, and
	// parallelism is the fleet's (RunShard and MergeShards, a job's Shards).
	Workers int `json:"-"`

	// Obs, when non-nil, receives the run's phase timings, counters and
	// gauges, which progress events and summaries are read from (see
	// internal/obs). Observability is
	// strictly passive: it never alters visiting order, pruning or caching,
	// so the report stays byte-identical with metrics on or off.
	Obs *obs.Run `json:"-"`

	// Checkpoint, when non-nil, journals every completed crash-state
	// verdict to a versioned on-disk journal and, when the journal already
	// holds verdicts from an interrupted run with the same configuration,
	// resumes from them: journaled verdicts are reused, not recomputed, and
	// counted in Stats.StatesResumed.
	Checkpoint *Checkpoint `json:"-"`
}

// DefaultOptions mirrors the paper's evaluation settings: k=1 victims, all
// consistent cuts, causal PFS model, baseline library model.
func DefaultOptions() Options {
	return Options{
		Mode:     ModePruning,
		PFSModel: ModelCausal,
		LibModel: ModelBaseline,
		Emulator: EmulatorConfig{
			K:         1,
			FrontMode: FrontAllCuts,
			MaxFronts: 20000,
			MaxStates: 200000,
		},
		MaxLegalStates: 50000,
	}
}

// Stats records exploration effort, the quantities behind Figures 10/11.
type Stats struct {
	TraceOps        int
	LowermostOps    int
	StatesGenerated int
	// StatesChecked counts visited crash states that missed the class memo
	// (representative.go): each was judged on its own, or took a verdict
	// judged for it by a fleet shard or a journal.
	StatesChecked int
	// StatesDeduped counts visited crash states that hit the class memo and
	// took their class representative's verdict. StatesChecked +
	// StatesDeduped is the number of states judged.
	StatesDeduped int
	// StateClasses is the number of class memo entries at the end of the run.
	StateClasses int
	StatesPruned int
	// StatesResumed counts verdicts taken from a checkpoint journal (for
	// states no class representative already settled).
	StatesResumed int
	// ServerRestores and OpsReplayed count the server-store restores and
	// lowermost op applies this run performed (reconstruction, class
	// digests, legal-state replay; fleet shards included), so they differ
	// between serial, sharded and resumed runs. The legal-state maxima
	// cover the sets this run enumerated.
	ServerRestores int
	OpsReplayed    int
	LegalPFSStates int
	LegalLibStates int
	Duration       time.Duration
}

// InconsistentState describes one failed crash state, pre-deduplication.
type InconsistentState struct {
	Layer       string // "pfs" or the library name
	Victims     []string
	Consequence string
	// Key is a stable digest of the recovered state's canonical content at
	// the failing layer — the dedup identity of the state. It depends only
	// on reconstruction (trace + persistence subset), never on the
	// consistency model judging it, so reports produced under different
	// models can be compared state-by-state: that is the basis of the fuzz
	// campaign's model-lattice oracle.
	Key string
}

// StateDigest condenses a recovered state's canonical content into the
// short stable identity used by InconsistentState.Key.
func StateDigest(layer, content string) string {
	sum := sha256.Sum256([]byte(content))
	return layer + ":" + hex.EncodeToString(sum[:8])
}

// SkippedState records one crash state the engine quarantined: its
// reconstruction or judgement failed (a restore error, a backend panic),
// so the state carries no verdict. Quarantine is the robustness
// contract's last resort — a poisoned state becomes a structured report
// entry instead of aborting the run.
type SkippedState struct {
	Victims []string
	Reason  string
}

// Report is the outcome of testing one workload against one file system.
type Report struct {
	Program string
	FS      string
	Mode    Mode
	Bugs    []*Bug
	// Inconsistent counts distinct inconsistent crash states (Figure 8
	// bars); LibOnly counts those where the PFS state was correct but the
	// library state was not (Figure 8 line plots).
	Inconsistent int
	LibOnly      int
	States       []InconsistentState
	// Skipped lists quarantined crash states (no verdict: reconstructing
	// or judging them failed or panicked); empty on healthy runs.
	Skipped []SkippedState `json:",omitempty"`
	Stats   Stats
}

// Format renders the report as the CLI's crash-consistency report.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== ParaCrash report: %s on %s (%s) ===\n", r.Program, r.FS, r.Mode)
	fmt.Fprintf(&b, "trace: %d ops (%d lowermost) | crash states: %d generated, %d checked, %d pruned\n",
		r.Stats.TraceOps, r.Stats.LowermostOps, r.Stats.StatesGenerated, r.Stats.StatesChecked, r.Stats.StatesPruned)
	if r.Stats.StatesDeduped > 0 || r.Stats.StateClasses > 0 {
		fmt.Fprintf(&b, "representative: %d states attributed from %d equivalence classes\n",
			r.Stats.StatesDeduped, r.Stats.StateClasses)
	}
	fmt.Fprintf(&b, "legal states: %d pfs, %d lib | restores: %d servers, %d ops replayed | %.3fs\n",
		r.Stats.LegalPFSStates, r.Stats.LegalLibStates, r.Stats.ServerRestores, r.Stats.OpsReplayed, r.Stats.Duration.Seconds())
	fmt.Fprintf(&b, "inconsistent crash states: %d (library-only: %d)\n", r.Inconsistent, r.LibOnly)
	if n := len(r.Skipped); n > 0 {
		fmt.Fprintf(&b, "quarantined crash states (no verdict): %d\n", n)
	}
	if len(r.Bugs) == 0 {
		b.WriteString("no crash-consistency bugs found\n")
		return b.String()
	}
	fmt.Fprintf(&b, "unique bugs: %d\n", len(r.Bugs))
	for i, bug := range r.Bugs {
		fmt.Fprintf(&b, "  [%d] %s bug in %s layer:\n", i+1, bug.Kind, bug.Layer)
		if bug.Kind == BugReordering {
			fmt.Fprintf(&b, "      %s  ->  %s\n", bug.OpA, bug.OpB)
		} else {
			fmt.Fprintf(&b, "      [%s , %s]\n", bug.OpA, bug.OpB)
		}
		fmt.Fprintf(&b, "      consequence: %s (%d states)\n", bug.Consequence, bug.States)
	}
	return b.String()
}

// session holds everything needed to reconstruct and check crash states.
type session struct {
	fs   pfs.FileSystem
	lib  Library
	opts Options
	// ctx carries the run's cancellation signal; exploration loops poll it
	// between crash states, never inside a state's reconstruction, so a
	// cancelled run stops at a clean state boundary.
	ctx context.Context
	// start is when the run began; id caches identity().
	start   time.Time
	program string
	id      string

	g       *causality.Graph
	emu     *Emulator
	pfsOps  *LayerOps
	libOps  *LayerOps
	initial *pfs.State

	clients map[string]pfs.Client

	// legal caches legal-state sets and replays; checkCache caches
	// verdicts per front|keep.
	legal      legalCache
	checkCache map[string]Verdict

	goldenPFS string // strict golden tree (all ops), for consequences
	goldenLib string

	// shipped, in the merge of a sharded run, resolves a front|keep key to
	// the verdict a shard judged, which check then uses instead of
	// reconstructing the state, with the class key the shard digested the
	// state into, which check then uses instead of digesting it again.
	shipped verdictTable

	// classes is the class memo (representative.go): class key to the
	// verdict of the class's representative. fronts memoises each crash
	// front's status vectors, which the class key and the verdict share.
	classes map[string]Verdict
	fronts  map[string]*frontStatus

	// keyBuf, frontBuf and classBuf are scratch for the state key, the
	// front key and the class key, so that check and front look their
	// tables up without building a string.
	keyBuf, frontBuf, classBuf []byte
	// reqFront and required are the front check last judged and its
	// required mask (PersistOrder.Required): the states of one front are
	// checked in a row, so the mask is computed once per front.
	reqFront, required causality.Bitset
	// checked is the state key check last inserted into checkCache, empty
	// when its last call inserted nothing (an infeasible state or a cache
	// hit): a shard reuses it for its verdict table.
	checked string

	// recon is the reconstruction engine (see reconstruct.go): it caches
	// prefix roots and recovered outcomes.
	recon *reconstructor

	// resumed holds the records of a checkpoint journal, keyed like
	// checkCache. Read-only during exploration.
	resumed map[string]Verdict
	// ckpt, when the run checkpoints, receives every freshly computed
	// verdict for journaling.
	ckpt *Checkpoint

	stats Stats

	// Observability handles, pre-resolved so the per-state hot path pays
	// one atomic add (or nothing at all when obs is off — nil handles are
	// no-ops). The counters mirror the Stats fields exactly; a fleet merge
	// folds its shards' effort into both through foldEffort.
	obs              *obs.Run
	ctrChecked       *obs.Counter
	ctrDeduped       *obs.Counter
	ctrPruned        *obs.Counter
	ctrBad           *obs.Counter
	ctrRestores      *obs.Counter
	ctrDigestRestore *obs.Counter // share of ctrRestores: class lookups
	ctrLegalRestore  *obs.Counter // share of ctrRestores: legal-state replay
	ctrProbeRestore  *obs.Counter // share of ctrRestores: classifier probes
	ctrProbes        *obs.Counter // probe states the classifier sent to check
	ctrRecover       *obs.Counter // crash-state recoveries: outcome-memo misses
	ctrReplayed      *obs.Counter
	ctrSkipped       *obs.Counter
	ctrLegalPFSCap   *obs.Counter
	ctrLegalLibCap   *obs.Counter
	ctrLibSets       *obs.Counter // sets the library model admits, skipped subtrees included
	ctrLibReplayed   *obs.Counter // leaves the walk reached
	ctrLibParses     *obs.Counter // leaves turned into a legal state: libTable misses
	ctrLibSteps      *obs.Counter // library op applies: libTable misses
	ctrPFSSteps      *obs.Counter // PFS client ops legal-state replay applies
	gaugeLegalPFS    *obs.Gauge
	gaugeLegalLib    *obs.Gauge
}

// bindObs resolves the session's metric handles against r (nil for a no-op
// collector).
func (s *session) bindObs(r *obs.Run) {
	s.obs = r
	s.ctrChecked = r.Counter("states/checked")
	s.ctrDeduped = r.Counter("states/deduped")
	s.ctrPruned = r.Counter("states/pruned")
	s.ctrBad = r.Counter("states/inconsistent")
	s.ctrRestores = r.Counter("restores/servers")
	s.ctrDigestRestore = r.Counter("restores/digest")
	s.ctrLegalRestore = r.Counter("restores/legal")
	s.ctrProbeRestore = r.Counter("restores/probe")
	s.ctrProbes = r.Counter("classify/probes")
	s.ctrRecover = r.Counter("recover/calls")
	s.ctrReplayed = r.Counter("ops/replayed")
	s.ctrSkipped = r.Counter("states/skipped")
	s.ctrLegalPFSCap = r.Counter("legal/pfs-capped")
	s.ctrLegalLibCap = r.Counter("legal/lib-capped")
	s.ctrLibSets = r.Counter("legal/lib-sets")
	s.ctrLibReplayed = r.Counter("legal/lib-replayed")
	s.ctrLibParses = r.Counter("legal/lib-parses")
	s.ctrLibSteps = r.Counter("legal/lib-steps")
	s.ctrPFSSteps = r.Counter("legal/pfs-steps")
	s.gaugeLegalPFS = r.Gauge("legal/pfs")
	s.gaugeLegalLib = r.Gauge("legal/lib")
}

// countRestores records n server-store restores the engine performed.
func (s *session) countRestores(n int) {
	s.stats.ServerRestores += n
	s.ctrRestores.Add(int64(n))
}

// countReplayed records n lowermost op applies the engine performed.
func (s *session) countReplayed(n int) {
	s.stats.OpsReplayed += n
	s.ctrReplayed.Add(int64(n))
}

// noteLegal folds legal-state set sizes into the run's maxima.
func (s *session) noteLegal(pfsN, libN int) {
	s.stats.LegalPFSStates = max(s.stats.LegalPFSStates, pfsN)
	s.stats.LegalLibStates = max(s.stats.LegalLibStates, libN)
	s.gaugeLegalPFS.Max(int64(pfsN))
	s.gaugeLegalLib.Max(int64(libN))
}

// foldEffort merges a fleet shard's measured effort into s: restores, op
// applies and resumed verdicts add up, legal-set sizes take the maximum.
// State counts are not folded — the merging walk counts every state itself.
func (s *session) foldEffort(st Stats) {
	s.countRestores(st.ServerRestores)
	s.countReplayed(st.OpsReplayed)
	s.stats.StatesResumed += st.StatesResumed
	s.noteLegal(st.LegalPFSStates, st.LegalLibStates)
}

// countVisit records one visited state, given the verdict check returned
// for it, as checked, or as deduplicated when the verdict was attributed
// from a class representative.
func (s *session) countVisit(v Verdict) {
	if v.attributed {
		s.stats.StatesDeduped++
		s.ctrDeduped.Inc()
	} else {
		s.stats.StatesChecked++
		s.ctrChecked.Inc()
	}
}

// Run executes the full ParaCrash pipeline for a workload against a file
// system (optionally topped by an I/O library) and returns the report.
func Run(fs pfs.FileSystem, lib Library, w Workload, opts Options) (*Report, error) {
	return RunContext(context.Background(), fs, lib, w, opts)
}

// RunContext is Run with cancellation: when ctx is cancelled (deadline,
// timeout, caller shutdown) the exploration stops at the next crash-state
// boundary, the live cluster is restored, and the run returns ctx's error.
// Cancellation is strictly a stop signal — it never changes which states a
// surviving run visits, so an uncancelled RunContext is byte-identical to
// Run.
func RunContext(ctx context.Context, fs pfs.FileSystem, lib Library, w Workload, opts Options) (*Report, error) {
	s, err := prepare(ctx, fs, lib, w, opts)
	if err != nil {
		return nil, err
	}
	return s.explore(nil, nil)
}

// prepare runs phases 0–2 of the pipeline — preamble, traced execution,
// causality analysis, golden replay — and returns the exploration session.
// It is shared by the full pipeline (RunContext/MergeShards) and the
// shard-scoped entry point (RunShard): every caller sees the identical
// trace, graph, emulator universe and golden states, which is what makes
// shard keys derived from the generation order stable across processes.
func prepare(ctx context.Context, fs pfs.FileSystem, lib Library, w Workload, opts Options) (*session, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	rec := fs.Recorder()
	if oa, ok := fs.(pfs.ObsAware); ok {
		// Store-level timings (restore/recover/mount) report to the same
		// run; a nil opts.Obs simply clears them to the no-op collector.
		oa.SetObs(opts.Obs)
	}

	// Phase 0: preamble (untraced) and the initial snapshot.
	stopTrace := opts.Obs.Phase(obs.PhaseTrace)
	rec.SetEnabled(false)
	if err := w.Preamble(fs); err != nil {
		return nil, fmt.Errorf("paracrash: preamble: %w", err)
	}
	initial := fs.Snapshot()

	if lib != nil {
		t, err := fs.Mount()
		if err != nil {
			return nil, fmt.Errorf("paracrash: mounting initial state: %w", err)
		}
		if err := lib.Seed(t); err != nil {
			return nil, fmt.Errorf("paracrash: seeding library: %w", err)
		}
	}

	// Phase 1: traced test execution.
	rec.Reset()
	rec.SetEnabled(true)
	if err := w.Run(fs); err != nil {
		return nil, fmt.Errorf("paracrash: test program: %w", err)
	}
	rec.SetEnabled(false)
	ops := rec.Ops()
	stopTrace()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("paracrash: run cancelled: %w", err)
	}

	// Phase 2: causality analysis.
	stopGraph := opts.Obs.Phase(obs.PhaseGraph)
	g := causality.Build(ops)
	emu := NewEmulator(g, fs.PersistConfig())
	emu.Obs = opts.Obs

	s := &session{
		fs: fs, lib: lib, opts: opts, ctx: ctx, start: start, program: w.Name(),
		g: g, emu: emu, initial: initial,
		pfsOps:     NewLayerOps(g, trace.LayerPFS, nil),
		clients:    map[string]pfs.Client{},
		legal:      newLegalCache(),
		checkCache: map[string]Verdict{},
		classes:    map[string]Verdict{},
		fronts:     map[string]*frontStatus{},
	}
	if lib != nil {
		s.libOps = NewLayerOps(g, trace.LayerIOLib, lib.IsLibOp)
	}
	var err error
	if s.recon, err = newReconstructor(s); err != nil {
		return nil, err
	}
	s.bindObs(opts.Obs)
	s.stats.TraceOps = len(ops)
	s.stats.LowermostOps = len(emu.Universe)
	opts.Obs.Counter("trace/ops").Add(int64(len(ops)))
	opts.Obs.Counter("trace/lowermost").Add(int64(len(emu.Universe)))

	if n := s.pfsOps.Len(); n > maxLayerOps {
		return nil, fmt.Errorf("paracrash: %d PFS-layer ops exceed the limit of %d (preserved-set enumeration is exponential)", n, maxLayerOps)
	}
	if s.libOps != nil && s.libOps.Len() > maxLayerOps {
		return nil, fmt.Errorf("paracrash: %d library-layer ops exceed the limit of %d", s.libOps.Len(), maxLayerOps)
	}

	// Resolve every PFS-layer client proc up front: a malformed proc name
	// (one that does not parse as "<name>/<rank>") fails the run loudly
	// here instead of silently replaying through client 0 deep inside
	// legal-state enumeration.
	for _, op := range s.pfsOps.Ops {
		if _, err := s.client(op.Proc); err != nil {
			return nil, err
		}
	}

	// Golden (strict) states for consequence reporting. A backend that
	// panics here fails the run: the engine cannot judge anything without
	// the golden state.
	allPFS := make([]int, s.pfsOps.Len())
	for i := range allPFS {
		allPFS[i] = i
	}
	if err := guard(func() error {
		s.goldenPFS = s.replayPFS(allPFS)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("paracrash: golden replay: %w", err)
	}
	if s.libOps != nil {
		s.goldenLib, _ = lib.Replay(s.libOps.Ops)
	}
	stopGraph()
	return s, nil
}

// resumeCheckpoint loads previously journaled verdicts (if any) for a run
// whose verdict-relevant configuration fingerprints to config, and arms the
// session to keep journaling. Callers arrange the exit-path Flush.
func (s *session) resumeCheckpoint(config string) error {
	stopResume := s.opts.Obs.Phase(obs.PhaseResume)
	defer stopResume()
	resumed, err := s.opts.Checkpoint.resume(config)
	if err != nil {
		return fmt.Errorf("paracrash: resume: %w", err)
	}
	s.resumed = resumed
	s.ckpt = s.opts.Checkpoint
	s.opts.Obs.Counter("resume/verdicts").Add(int64(len(resumed)))
	s.opts.Obs.Counter("resume/warnings").Add(int64(len(s.opts.Checkpoint.Warnings())))
	return nil
}

// flushCheckpoint is the exit-path flush of a resumed run's journal. A
// failed flush is counted, never fatal.
func (s *session) flushCheckpoint() {
	if err := s.opts.Checkpoint.Flush(); err != nil {
		s.opts.Obs.Counter("checkpoint/flush-errors").Inc()
	}
}

// emulatorConfig materialises the crash-emulation bounds for phase 3. The
// victim filter is derived here, whatever the caller set: the semantic
// filter in pruning mode, nil in brute force, so the Mode in
// checkpointConfig's fingerprint covers it. Fleet shards and the merge must
// build the identical configuration: it decides which crash states are
// generated, and with them the generation order the shard keys index.
func (o Options) emulatorConfig() EmulatorConfig {
	emuCfg := o.Emulator
	emuCfg.VictimFilter = nil
	if o.Mode != ModeBrute {
		emuCfg.VictimFilter = semanticVictim
	}
	return emuCfg
}

// semanticVictim is semantic pruning's victim filter: data-chunk updates of
// library datasets are not reordered (paper §5.3).
func semanticVictim(op *trace.Op) bool {
	return !strings.HasPrefix(op.Tag, "h5:data")
}

// generate enumerates the run's crash states in generation order, the one
// visiting order of every run, fleet shards included. It stops early when
// the run is cancelled.
func (s *session) generate() []CrashState {
	stopGen := s.opts.Obs.Phase(obs.PhaseGenerate)
	defer stopGen()
	var states []CrashState
	s.stats.StatesGenerated = s.emu.Generate(s.opts.emulatorConfig(), func(cs CrashState) bool {
		states = append(states, cs)
		return s.ctx.Err() == nil
	})
	s.opts.Obs.Counter("states/generated").Add(int64(s.stats.StatesGenerated))
	return states
}

// explore is phase 3 of RunContext and MergeShards on a prepared session:
// it generates the crash states, judges and classifies them in one serial
// walk, and builds the report. shipped, when non-nil, holds the verdicts
// and class keys fleet shards judged, which the walk uses instead of
// computing them, and effort (the shards' measured work) is folded into
// Stats.
func (s *session) explore(shipped verdictTable, effort []Stats) (*Report, error) {
	// Checkpoint/resume: load previously journaled verdicts (if any) and
	// keep journaling from here on. The journal is flushed on every exit
	// path — success, failure and cancellation alike.
	if s.opts.Checkpoint != nil {
		if err := s.resumeCheckpoint(checkpointConfig(s.identity(), s.opts)); err != nil {
			return nil, err
		}
		defer s.flushCheckpoint()
	}

	// Phase 3: crash emulation + checking.
	report := &Report{Program: s.program, FS: s.fs.Name(), Mode: s.opts.Mode}
	states := s.generate()
	s.checkCache = make(map[string]Verdict, len(states))
	stopExplore := s.opts.Obs.Phase(obs.PhaseExplore)
	s.shipped = shipped
	s.walk(states, report)
	stopExplore()

	// Restore the live cluster to the untouched post-run state (also on
	// cancellation, so a reused file system is never left mid-crash-state).
	s.fs.Restore(s.initial)
	if err := s.ctx.Err(); err != nil {
		return nil, fmt.Errorf("paracrash: run cancelled: %w", err)
	}
	if err := s.stats.reconcile(); err != nil {
		return nil, err
	}

	for _, st := range effort {
		s.foldEffort(st)
	}
	s.stats.StateClasses = len(s.classes)
	s.opts.Obs.Gauge("states/classes").Set(int64(s.stats.StateClasses))
	s.stats.Duration = time.Since(s.start)
	report.Stats = s.stats
	return report, nil
}

// reconcile holds a finished, uncancelled walk to the state-count identity:
// every generated state was checked, deduplicated or pruned, exactly once.
func (st Stats) reconcile() error {
	if n := st.StatesChecked + st.StatesDeduped + st.StatesPruned; n != st.StatesGenerated {
		return fmt.Errorf("paracrash: %d crash states generated, but %d checked + %d deduplicated + %d pruned = %d",
			st.StatesGenerated, st.StatesChecked, st.StatesDeduped, st.StatesPruned, n)
	}
	return nil
}

// clientID parses the numeric rank out of a client proc name ("client/3").
// Proc names come from the trace recorder; one that does not parse means
// the trace is corrupt, and collapsing it onto rank 0 — as an ignored
// Sscanf error used to — would silently replay another client's state.
func clientID(proc string) (int, error) {
	i := strings.IndexByte(proc, '/')
	if i < 0 {
		return 0, fmt.Errorf("paracrash: client proc %q: missing \"/<rank>\" suffix", proc)
	}
	id, err := strconv.Atoi(proc[i+1:])
	if err != nil {
		return 0, fmt.Errorf("paracrash: client proc %q: unparsable rank: %v", proc, err)
	}
	if id < 0 {
		return 0, fmt.Errorf("paracrash: client proc %q: negative rank", proc)
	}
	return id, nil
}

// client returns (and caches) the client endpoint for a client proc name.
func (s *session) client(proc string) (pfs.Client, error) {
	if c, ok := s.clients[proc]; ok {
		return c, nil
	}
	id, err := clientID(proc)
	if err != nil {
		return nil, err
	}
	c := s.fs.Client(id)
	s.clients[proc] = c
	return c, nil
}

// feasible reports whether cs respects commit durability: its keep set
// holds every op that a sync completed within its front makes durable.
func (s *session) feasible(cs CrashState) bool {
	if !s.reqFront.Equal(cs.Front) {
		s.reqFront = append(s.reqFront[:0], cs.Front...)
		s.required = s.emu.PO.Required(cs.Front, s.required)
	}
	return cs.Keep.ContainsAll(s.required)
}

// check judges one crash state in one sequence. A state that violates
// commit durability cannot occur and counts as consistent (the classifier
// probes such combinations). Otherwise the verdict comes from this
// session's cache; else from a verdict judged elsewhere — by a fleet shard,
// else by the run that wrote the journal; else from the state's class; else
// the state is judged on its own. A verdict judged elsewhere brings its class
// key, so the state is not digested again, and the class is looked up
// before that verdict is used, so a member is attributed the same way
// whether its representative was computed, shipped or resumed. The verdict
// carries the state's class key ("" when the digest failed); a state whose
// digest or judgement fails comes back skipped.
func (s *session) check(cs CrashState) Verdict {
	s.checked = ""
	if !s.feasible(cs) {
		return Verdict{Consistent: true}
	}
	// The tables are read through the key's bytes in a scratch buffer; the
	// key becomes a string only to be inserted.
	s.keyBuf = appendStateKey(s.keyBuf[:0], cs)
	if v, ok := s.checkCache[string(s.keyBuf)]; ok {
		return v
	}
	var v Verdict
	elsewhere, resumed := false, false
	if len(s.shipped) > 0 {
		v, elsewhere = s.shipped[string(s.keyBuf)]
	}
	if !elsewhere && len(s.resumed) > 0 {
		v, resumed = s.resumed[string(s.keyBuf)]
		elsewhere = resumed
	}
	key := string(s.keyBuf)
	// Neither whether a shard attributed the verdict from its own classes
	// nor a journal record's hex key carries over.
	v.attributed, v.Key = false, ""
	var err error
	var cv Verdict
	member := false
	if v.Class != "" {
		cv, member = s.classes[v.Class]
	} else if ck, kerr := s.classKey(cs); kerr != nil {
		err = kerr
	} else if cv, member = s.classes[string(ck)]; !member {
		v.Class = string(ck)
	}
	if member {
		// A state of the same class already carries the verdict: attribute
		// it without a verdict of its own. Members are not journaled — on
		// resume they re-attribute from the replayed representative, keeping
		// the journal one record per class.
		cv.attributed = true
		s.checkCache[key] = cv
		s.checked = key
		return cv
	}
	if resumed {
		s.stats.StatesResumed++
	}
	if !elsewhere {
		v = s.judge(cs, v.Class, err)
	}
	if v.Skipped {
		// Counted by the session that reports the state, whoever judged it.
		s.ctrSkipped.Inc()
	}
	s.checkCache[key] = v
	s.checked = key
	s.recordClass(v)
	s.journal(key, v)
	return v
}

// probe is the classifier's check: it judges a probe state through check and
// counts it on classify/probes, and the restores its judgement took on
// restores/probe (which overlaps restores/digest: a probe's class digest is
// both). A quarantined probe state carries no verdict; it reads as
// consistent, so classification degrades gracefully instead of inventing
// causes from a state that could not be reconstructed.
func (s *session) probe(cs CrashState) (bool, string) {
	s.ctrProbes.Inc()
	before := s.stats.ServerRestores
	v := s.check(cs)
	s.ctrProbeRestore.Add(int64(s.stats.ServerRestores - before))
	return v.Consistent || v.Skipped, v.State
}

// journal records a verdict in the checkpoint (no-op when the run does not
// checkpoint, and for verdicts the journal already holds). Journal write
// errors are counted, never fatal — losing checkpoint durability must not
// take the run down.
func (s *session) journal(key string, v Verdict) {
	if s.ckpt == nil {
		return
	}
	if err := s.ckpt.record(key, v); err != nil {
		s.obs.Counter("checkpoint/flush-errors").Inc()
	}
}

// judge reconstructs and judges cs on its own, once, into a verdict of
// class ckey, unless digesting it already failed with err: a state whose
// digest or verdict fails or panics is quarantined. The digest is the
// state's reconstruction and recovery, so a verdict would fail the same way.
func (s *session) judge(cs CrashState, ckey string, err error) Verdict {
	var v Verdict
	if err == nil {
		err = guard(func() (err error) {
			v, err = s.verdict(cs)
			return err
		})
	}
	if err != nil {
		v = Verdict{Skipped: true, Consequence: "quarantined: " + err.Error()}
	}
	v.Class = ckey
	return v
}

// guard runs fn once, turning a panic into an error carrying the panic
// text, so a backend that panics while one state is judged quarantines that
// state instead of ending the run. Nothing is retried: every store is an
// in-memory simulator, so a second attempt would fail the same way. Nothing
// needs rolling back either: every bring restores every server before it
// replays anything.
func guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// verdict judges cs against the legal states for its crash front. It
// obtains the recovered outcome first, like the real workflow (fsck before
// the consistency test), reconstructing the cluster only when the outcome
// is not memoised. A failed reconstruction surfaces as an error, which
// quarantines the state; recovery/mount failures remain verdicts — they are
// what the checker exists to find.
func (s *session) verdict(cs CrashState) (Verdict, error) {
	// Recovery is a pure function of the store images, so states sharing an
	// image (and the class lookup that already digested this one) share one
	// memoised fsck+mount outcome.
	o, err := s.recon.recoveredOutcome(cs)
	if err != nil {
		return Verdict{}, err
	}
	if o.recoverErr != "" {
		return Verdict{Layer: "pfs", Consequence: "unrecoverable file system: " + o.recoverErr, State: "UNRECOVERABLE"}, nil
	}
	if o.mountErr != "" {
		return Verdict{Layer: "pfs", Consequence: "mount failed after fsck: " + o.mountErr, State: "UNMOUNTABLE"}, nil
	}
	tree, treeStr := o.tree, o.treeStr
	fst := s.front(cs.Front)

	if s.lib == nil {
		if s.legalPFS(fst.pfs)[treeStr] {
			return Verdict{Consistent: true}, nil
		}
		return Verdict{Layer: "pfs", Consequence: s.describePFS(treeStr), State: treeStr}, nil
	}

	// Top-down: library first.
	legalLib := s.legalLib(fst.lib)

	libState, lerr := s.lib.StateFromTree(tree)
	if lerr == nil && legalLib[libState] {
		return Verdict{Consistent: true}, nil
	}
	// Run the library's recovery tools before declaring inconsistency.
	if fixed, changed := s.lib.RecoverTree(tree); changed {
		if st, err2 := s.lib.StateFromTree(fixed); err2 == nil && legalLib[st] {
			return Verdict{Consistent: true}, nil
		}
	}

	// The library state is inconsistent: attribute by checking the PFS.
	consequence := ""
	libKey := libState
	if lerr != nil {
		consequence = fmt.Sprintf("library state unreadable: %v", lerr)
		libKey = "CORRUPT: " + lerr.Error()
	} else {
		consequence = s.describeLib(libState)
	}
	if s.legalPFS(fst.pfs)[treeStr] {
		return Verdict{Layer: s.lib.Name(), Consequence: consequence, State: libKey}, nil
	}
	return Verdict{Layer: "pfs", Consequence: consequence + " (PFS state also illegal)", State: treeStr}, nil
}

// describePFS summarises how the recovered tree differs from the golden
// (full-execution) tree.
func (s *session) describePFS(treeStr string) string {
	if treeStr == s.goldenPFS {
		return "state equals the no-crash state but violates the model"
	}
	return "recovered PFS state matches no legal state (" + firstLineDiff(treeStr, s.goldenPFS) + ")"
}

func (s *session) describeLib(state string) string {
	return "library state matches no legal state (" + firstLineDiff(state, s.goldenLib) + ")"
}

// firstLineDiff reports the first differing line between two canonical
// serialisations, a compact consequence hint.
func firstLineDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("got %q want %q", x, y)
		}
	}
	return "no textual diff"
}

// legalCache holds a run's legal-state sets, the trie of PFS replays that
// enumerates the PFS ones and the table of library replays that enumerates
// the library ones. All are pure functions of the selection or replay
// state, so each set is enumerated, each PFS selection mounted and each
// library transition applied once per run instead of once per crash front.
type legalCache struct {
	sets map[legalKey]map[string]bool
	pfs  pfsTrie
	lib  libTable
}

// legalKey names one legal-state set of a run: its layer and status vector.
type legalKey struct{ layer, status string }

func newLegalCache() legalCache {
	return legalCache{sets: map[legalKey]map[string]bool{}, lib: libTable{
		next:   map[libEdge]any{},
		leaves: map[string]libLeaf{},
	}}
}

// maxLibReplays bounds the library replay table's transitions and legal
// leaves. At the cap nothing more is inserted: a missed transition is
// applied and a missed leaf parsed again, so only legal/lib-steps and
// legal/lib-parses depend on it, never a legal set.
const maxLibReplays = 4096

// libTable memoises the library legal-state walk across crash fronts by
// replay state, as pfsTrie memoises PFS replays by selection prefix. Apply
// and LegalState are pure functions of a replay's digest (Library.Digest),
// and a replay handed out is never modified, so a transition reached from
// an equal digest, or a leaf with an equal digest, is looked up instead of
// computed again, whichever status vector reaches it.
type libTable struct {
	root   any                // Library.Start, once taken
	next   map[libEdge]any    // (digest, op position) -> Apply's replay state
	leaves map[string]libLeaf // digest -> LegalState's result
}

// libEdge is one library transition: the digest of the replay state it
// leaves and the layer position of the op it applies.
type libEdge struct {
	digest string
	pos    int
}

// libLeaf is LegalState's result for one replay digest; ok is false when
// the state did not parse.
type libLeaf struct {
	state string
	ok    bool
}

// maxLegalSnaps bounds the PFS replay trie's snapshot-holding nodes. At the
// cap every snapshot but the root's is dropped and the replay restarts from
// the root; the nodes and their mounted serialisations stay, so which
// selections miss, and with them the restores counted, never depend on it.
const maxLegalSnaps = 4096

// pfsTrie memoises PFS legal-state replays by selection prefix. Node 0 is
// the empty selection, the initial snapshot; the child of node p along op
// position pos is p's selection plus pos (selections are sorted). A node
// holds the server stores after replaying its path and, once mounted, the
// tree serialisation, so a selection replays only the ops past the longest
// prefix replayed before it.
//
// Client ops allocate object IDs from counters of the cluster that runs
// them, counters every store restore leaves alone. A cluster's counters only
// grow, so the snapshots of the one cluster that owns the trie never hold an
// ID it will allocate again.
type pfsTrie struct {
	procs []string // fs.Procs()
	nodes []pfsNode
	child map[rootEdge]int
	held  int // non-root nodes holding snaps, at most maxLegalSnaps
}

type pfsNode struct {
	snaps   []pfs.ServerSnap // per procs; nil once dropped at the cap
	mounted bool
	tree    string // the serialisation, or "UNMOUNTABLE", once mounted
}

// legalSet returns the legal-state set of one layer ("pfs", or "lib/" and
// the library's name) for a status vector: from the run's cache, or else
// filled in by enumerate, in which case note receives its size. An
// enumeration a panic cuts short caches nothing: a partial legal set would
// make later states judge against too few states.
func (s *session) legalSet(layer string, status []Status, note func(n int), enumerate func(set map[string]bool)) map[string]bool {
	key := legalKey{layer, statusKey(status)}
	if set, ok := s.legal.sets[key]; ok {
		return set
	}
	set := map[string]bool{}
	enumerate(set)
	s.legal.sets[key] = set
	note(len(set))
	return set
}

// legalPFS returns the set of legal PFS tree serialisations for the front:
// one replayPFS per preserved set, each replaying only the ops past the
// longest prefix an earlier replay left in the trie.
func (s *session) legalPFS(status []Status) map[string]bool {
	note := func(n int) { s.noteLegal(n, 0) }
	return s.legalSet("pfs", status, note, func(set map[string]bool) {
		if s.pfsOps.PreservedSets(s.opts.PFSModel, status, s.opts.MaxLegalStates, func(sel []int) bool {
			set[s.replayPFS(sel)] = true
			return true
		}) {
			s.ctrLegalPFSCap.Inc()
		}
	})
}

// legalLib returns the set of legal library logical states for the front,
// enumerated in one walk that steps a resumable replay by one op per
// include edge and skips every subtree whose replay state it has walked
// (see LayerOps.walk). Steps and leaves come from the run's libTable when
// any front reached the same replay state before.
func (s *session) legalLib(status []Status) map[string]bool {
	note := func(n int) { s.noteLegal(0, n) }
	return s.legalSet("lib/"+s.lib.Name(), status, note, func(set map[string]bool) {
		t := &s.legal.lib
		if t.root == nil {
			t.root = s.lib.Start()
		}
		step := func(st any, pos int) any {
			e := libEdge{s.lib.Digest(st), pos}
			if next, ok := t.next[e]; ok {
				return next
			}
			s.ctrLibSteps.Inc()
			next := s.lib.Apply(st, s.libOps.Ops[pos])
			if len(t.next) < maxLibReplays {
				t.next[e] = next
			}
			return next
		}
		n, capped := s.libOps.walk(s.opts.LibModel, status, s.opts.MaxLegalStates, t.root, step, s.lib.Digest, func(_ []int, st any) bool {
			s.ctrLibReplayed.Inc()
			d := s.lib.Digest(st)
			l, ok := t.leaves[d]
			if !ok {
				s.ctrLibParses.Inc()
				ls, err := s.lib.LegalState(st)
				l = libLeaf{ls, err == nil}
				if len(t.leaves) < maxLibReplays {
					t.leaves[d] = l
				}
			}
			if l.ok {
				set[l.state] = true
			}
			return true
		})
		s.ctrLibSets.Add(int64(n))
		if capped {
			s.ctrLegalLibCap.Inc()
		}
	})
}

func statusKey(status []Status) string {
	b := make([]byte, len(status))
	for i, st := range status {
		b[i] = byte('0' + int(st))
	}
	return string(b)
}

// replayPFS returns the tree serialisation of the PFS state the selected
// client ops reach from the initial snapshot, from the trie when the
// selection was mounted before. Otherwise it restores every server from the
// deepest node along sel that holds snapshots, replays the ops past it
// (capturing a node after each) and mounts. An unmountable replay is a
// legitimate legal state.
func (s *session) replayPFS(sel []int) string {
	t := &s.legal.pfs
	if t.nodes == nil {
		t.procs = s.fs.Procs()
		root := make([]pfs.ServerSnap, len(t.procs))
		for i, p := range t.procs {
			root[i], _ = s.initial.ServerSnap(p)
		}
		t.nodes, t.child = []pfsNode{{snaps: root}}, map[rootEdge]int{}
	}
	procs := t.procs
	// node descends as far as sel's path exists; from is the deepest node
	// on it holding snapshots, base its depth.
	node, from, base, k := 0, 0, 0, 0
	for ; k < len(sel); k++ {
		c, ok := t.child[rootEdge{node, sel[k]}]
		if !ok {
			break
		}
		if node = c; t.nodes[c].snaps != nil {
			from, base = c, k+1
		}
	}
	if k == len(sel) && t.nodes[node].mounted {
		return t.nodes[node].tree
	}
	if t.held+len(sel)-base > maxLegalSnaps {
		for i := range t.nodes[1:] {
			t.nodes[i+1].snaps = nil
		}
		t.held, from, base = 0, 0, 0
	}

	s.fs.Recorder().SetEnabled(false)
	for i, p := range procs {
		s.fs.RestoreServerSnap(p, t.nodes[from].snaps[i])
	}
	s.countRestores(len(procs))
	s.ctrLegalRestore.Add(int64(len(procs)))
	node = from
	for _, pos := range sel[base:] {
		op := s.pfsOps.Ops[pos]
		c, err := s.client(op.Proc)
		if err != nil {
			// Every PFS-layer proc was validated when the session was
			// built; reaching this means the trace mutated mid-run.
			panic(err)
		}
		// Failed replays (missing prerequisites under weak models) lose
		// the op, matching crash semantics.
		_ = pfs.ReplayClientOp(c, op)
		s.ctrPFSSteps.Inc()
		next, ok := t.child[rootEdge{node, pos}]
		if !ok {
			next = len(t.nodes)
			t.child[rootEdge{node, pos}] = next
			t.nodes = append(t.nodes, pfsNode{})
		}
		node = next
		// Nodes past base hold no snaps: fill them while under the cap.
		if n := &t.nodes[node]; t.held < maxLegalSnaps {
			t.held++
			n.snaps = make([]pfs.ServerSnap, len(procs))
			for i, p := range procs {
				n.snaps[i], _ = s.fs.CaptureServer(p)
			}
		}
	}
	st := "UNMOUNTABLE"
	if tree, err := s.fs.Mount(); err == nil {
		st = tree.Serialize()
	}
	t.nodes[node].mounted, t.nodes[node].tree = true, st
	return st
}
