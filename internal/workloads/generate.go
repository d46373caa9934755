package workloads

import (
	"fmt"
	"math/rand"

	"paracrash/internal/pfs"
)

// Generator bounds. MaxGenOps tracks the checker's layer-op budget (a run
// refuses a layer of more than 20 ops; a body op can fan out into a
// handful of lowermost ops, so 12 keeps preserved-set enumeration sane).
const (
	MaxGenOps   = 12
	MaxGenFiles = 8
	MaxGenDirs  = 4
)

// GenConfig bounds the random POSIX program generator (the paper notes
// that "ParaCrash allows users to generate their own test programs" —
// this is the CrashMonkey-style bounded generator for that use).
//
// Out-of-range fields are clamped, never silently accepted: Ops and Files
// fall back to their defaults when non-positive and are capped at MaxGenOps
// / MaxGenFiles; Dirs is clamped into [0, MaxGenDirs]. Clamp exposes the
// effective configuration.
type GenConfig struct {
	// Seed makes generation deterministic.
	Seed int64
	// Ops is the number of operations in the traced body (bounded by the
	// checker's layer-op budget; clamped to [1, MaxGenOps]).
	Ops int
	// Files and Dirs bound the namespace the program touches.
	Files int
	Dirs  int
	// WithFsync allows fsync operations in the body.
	WithFsync bool
}

// DefaultGenConfig returns a small but interesting program shape.
func DefaultGenConfig(seed int64) GenConfig {
	return GenConfig{Seed: seed, Ops: 8, Files: 3, Dirs: 2, WithFsync: true}
}

// Clamp returns the configuration the generator actually uses: defaults for
// non-positive Ops/Files, hard caps at the Max* bounds, Dirs in
// [0, MaxGenDirs].
func (cfg GenConfig) Clamp() GenConfig {
	if cfg.Ops <= 0 {
		cfg.Ops = 8
	}
	if cfg.Ops > MaxGenOps {
		cfg.Ops = MaxGenOps
	}
	if cfg.Files <= 0 {
		cfg.Files = 3
	}
	if cfg.Files > MaxGenFiles {
		cfg.Files = MaxGenFiles
	}
	if cfg.Dirs < 0 {
		cfg.Dirs = 0
	}
	if cfg.Dirs > MaxGenDirs {
		cfg.Dirs = MaxGenDirs
	}
	return cfg
}

// Op kinds understood by Program bodies.
const (
	OpMkdir  = "mkdir"
	OpCreat  = "creat"
	OpPwrite = "pwrite"
	OpAppend = "append"
	OpRename = "rename"
	OpUnlink = "unlink"
	OpFsync  = "fsync"
	OpClose  = "close"
)

// Op is one POSIX operation of a generated or enumerated test program. It
// is the unit the fuzz campaign's delta-debugging minimizer removes and the
// corpus files serialise, so it carries JSON tags.
type Op struct {
	Kind  string `json:"kind"`
	Path  string `json:"path"`
	Path2 string `json:"path2,omitempty"`
	Data  []byte `json:"data,omitempty"`
	Off   int64  `json:"off,omitempty"`
}

// String renders the op in the script notation.
func (op Op) String() string {
	switch op.Kind {
	case OpPwrite:
		return fmt.Sprintf("pwrite(%s, off=%d, %dB)", op.Path, op.Off, len(op.Data))
	case OpAppend:
		return fmt.Sprintf("append(%s, %dB)", op.Path, len(op.Data))
	case OpRename:
		return fmt.Sprintf("rename(%s, %s)", op.Path, op.Path2)
	default:
		return fmt.Sprintf("%s(%s)", op.Kind, op.Path)
	}
}

// Program is a deterministic op-list workload: an untraced preamble that
// builds the initial state and a traced body. Generate and Enumerate
// produce Programs; the fuzz campaign rebuilds them from corpus files.
type Program struct {
	name     string
	preamble []Op
	body     []Op
}

// NewProgram builds a workload from explicit op lists. The ops are not
// validated: an op whose prerequisite is missing fails at Run time, which
// is exactly what the campaign minimizer relies on to reject invalid
// shrink candidates.
func NewProgram(name string, preamble, body []Op) *Program {
	return &Program{name: name, preamble: preamble, body: body}
}

// Name implements paracrash.Workload.
func (g *Program) Name() string { return g.name }

// PreambleOps returns the preamble op list (shared slice; treat as
// read-only).
func (g *Program) PreambleOps() []Op { return g.preamble }

// Body returns the traced body op list (shared slice; treat as read-only).
func (g *Program) Body() []Op { return g.body }

// Preamble implements paracrash.Workload.
func (g *Program) Preamble(fs pfs.FileSystem) error {
	return ApplyOps(fs.Client(0), g.preamble)
}

// Run implements paracrash.Workload.
func (g *Program) Run(fs pfs.FileSystem) error {
	return ApplyOps(fs.Client(0), g.body)
}

// Script renders the body for inspection and reports.
func (g *Program) Script() string {
	out := ""
	for _, op := range g.body {
		out += op.String() + "\n"
	}
	return out
}

// Generate builds a random-but-valid POSIX test program: the generator
// tracks the namespace model while choosing operations, so a clean run
// never fails. The same seed always yields the same program.
func Generate(cfg GenConfig) *Program {
	cfg = cfg.Clamp()
	r := rand.New(rand.NewSource(cfg.Seed))

	// Namespace model during generation.
	dirs := []string{""}
	for i := 0; i < cfg.Dirs; i++ {
		dirs = append(dirs, fmt.Sprintf("/dir%d", i))
	}
	var pre []Op
	for _, d := range dirs[1:] {
		pre = append(pre, Op{Kind: OpMkdir, Path: d})
	}
	exists := map[string]bool{}
	names := make([]string, 0, cfg.Files)
	for i := 0; i < cfg.Files; i++ {
		d := dirs[r.Intn(len(dirs))]
		p := fmt.Sprintf("%s/f%d", d, i)
		names = append(names, p)
		// Half the files pre-exist with content.
		if r.Intn(2) == 0 {
			pre = append(pre, Op{Kind: OpCreat, Path: p},
				Op{Kind: OpPwrite, Path: p, Data: payload(r)},
				Op{Kind: OpClose, Path: p})
			exists[p] = true
		}
	}

	pick := func() string { return names[r.Intn(len(names))] }
	existing := func() (string, bool) {
		// Walk names in declaration order (map iteration would be
		// nondeterministic) and stop at a coin flip, so any existing file
		// can be chosen and the choice depends only on the seed.
		best := ""
		for _, p := range names {
			if exists[p] {
				best = p
				if r.Intn(2) == 0 {
					break
				}
			}
		}
		return best, best != ""
	}

	var body []Op
	for len(body) < cfg.Ops {
		switch r.Intn(6) {
		case 0: // create a missing file
			p := pick()
			if exists[p] {
				continue
			}
			body = append(body, Op{Kind: OpCreat, Path: p})
			exists[p] = true
		case 1: // write to an existing file
			p, ok := existing()
			if !ok {
				continue
			}
			body = append(body, Op{Kind: OpPwrite, Path: p, Off: int64(r.Intn(2)) * 64, Data: payload(r)})
		case 2: // append
			p, ok := existing()
			if !ok {
				continue
			}
			body = append(body, Op{Kind: OpAppend, Path: p, Data: payload(r)})
		case 3: // rename over (possibly) existing target
			src, ok := existing()
			if !ok {
				continue
			}
			dst := pick()
			if dst == src {
				continue
			}
			body = append(body, Op{Kind: OpRename, Path: src, Path2: dst})
			delete(exists, src)
			exists[dst] = true
		case 4: // unlink
			p, ok := existing()
			if !ok {
				continue
			}
			body = append(body, Op{Kind: OpUnlink, Path: p})
			delete(exists, p)
		case 5: // fsync or close
			p, ok := existing()
			if !ok {
				continue
			}
			if cfg.WithFsync && r.Intn(2) == 0 {
				body = append(body, Op{Kind: OpFsync, Path: p})
			} else {
				body = append(body, Op{Kind: OpClose, Path: p})
			}
		}
	}
	return &Program{
		name:     fmt.Sprintf("gen-%d", cfg.Seed),
		preamble: pre,
		body:     body,
	}
}

func payload(r *rand.Rand) []byte {
	b := make([]byte, 16+r.Intn(48))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return b
}

// ApplyOps executes an op list against a PFS client, stopping at the first
// failure.
func ApplyOps(c pfs.Client, ops []Op) error {
	for _, op := range ops {
		var err error
		switch op.Kind {
		case OpMkdir:
			err = c.Mkdir(op.Path)
		case OpCreat:
			err = c.Create(op.Path)
		case OpPwrite:
			err = c.WriteAt(op.Path, op.Off, op.Data)
		case OpAppend:
			err = c.Append(op.Path, op.Data)
		case OpRename:
			err = c.Rename(op.Path, op.Path2)
		case OpUnlink:
			err = c.Unlink(op.Path)
		case OpFsync:
			err = c.Fsync(op.Path)
		case OpClose:
			err = c.Close(op.Path)
		default:
			err = fmt.Errorf("generated op kind %q", op.Kind)
		}
		if err != nil {
			return fmt.Errorf("generated %s(%s): %w", op.Kind, op.Path, err)
		}
	}
	return nil
}
