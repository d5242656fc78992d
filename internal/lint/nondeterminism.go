package lint

import (
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NondeterminismAnalyzer forbids wall-clock time and the global math/rand
// source in production code. The reproduction's results are bit-for-bit
// deterministic because every duration is virtual (internal/vclock) and
// every random stream is explicitly seeded; one stray time.Now() or
// rand.Intn() silently breaks that.
//
// Allowed: time.Duration arithmetic and constants, explicitly seeded
// generators (rand.New(rand.NewSource(seed))), anything in _test.go
// files, and the blessed wrappers internal/vclock, internal/simio, and
// internal/telemetry.
var NondeterminismAnalyzer = &Analyzer{
	Name: "nondeterminism",
	Doc:  "forbid wall-clock time, global math/rand, and ambient process state (env, pid, CPU count) in production code",
	Run:  runNondeterminism,
}

// nondetExemptSuffixes are package paths allowed to touch real entropy
// sources (they are the deterministic wrappers everything else must use).
var nondetExemptSuffixes = []string{
	"internal/vclock",
	"internal/simio",
	// telemetry owns the wall-clock seam: its Wall clock is the single
	// sanctioned time.Now, opt-in per deployment and excluded from every
	// deterministic encoding (spans zero WallNanos on the wire).
	"internal/telemetry",
}

// forbiddenEnvFuncs read ambient process state (environment, pid, CPU
// count); results vary per machine and silently skew deterministic
// output if they influence production code paths.
var forbiddenEnvFuncs = map[string]string{
	"os.Getenv":      "thread configuration through explicit parameters",
	"os.LookupEnv":   "thread configuration through explicit parameters",
	"os.Environ":     "thread configuration through explicit parameters",
	"os.Getpid":      "derive identifiers from configured server IDs",
	"runtime.NumCPU": "make parallelism an explicit config knob",
}

// forbiddenTimeFuncs are the package-level time functions that read or
// wait on the wall clock.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// allowedRandFuncs are math/rand package-level functions that do NOT
// draw from the global (non-deterministically seeded) source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true,
	"NewChaCha8": true,
}

func runNondeterminism(pass *Pass) error {
	for _, sfx := range nondetExemptSuffixes {
		if strings.HasSuffix(pass.PkgPath, sfx) {
			return nil
		}
	}
	type finding struct {
		pos  token.Pos
		what string
		hint string
	}
	var found []finding
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		// Only package-level functions: methods on rand.Rand / time.Timer
		// etc. operate on explicitly constructed values.
		if fn.Type().(*types.Signature).Recv() != nil {
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			if forbiddenTimeFuncs[fn.Name()] {
				found = append(found, finding{id.Pos(), "time." + fn.Name(),
					"route time through internal/vclock virtual accounts"})
			}
		case "math/rand", "math/rand/v2":
			if !allowedRandFuncs[fn.Name()] {
				found = append(found, finding{id.Pos(), "rand." + fn.Name(),
					"use an explicitly seeded rand.New(rand.NewSource(seed))"})
			}
		case "os", "runtime":
			qual := fn.Pkg().Path() + "." + fn.Name()
			if hint, bad := forbiddenEnvFuncs[qual]; bad {
				found = append(found, finding{id.Pos(), qual, hint})
			}
		}
	}
	// Map iteration order is random; sort for deterministic reports.
	sort.Slice(found, func(i, j int) bool { return found[i].pos < found[j].pos })
	for _, f := range found {
		pass.Reportf(f.pos, "nondeterministic call %s in production code; %s", f.what, f.hint)
	}
	return nil
}
