// Command samsim compiles a tensor index notation statement, binds input
// tensors (synthetic or Matrix Market files), simulates the SAM graph on the
// cycle-approximate engine, and reports cycles plus a gold check.
//
// Usage:
//
//	samsim -expr 'X(i,j) = B(i,k) * C(k,j)' -order i,k,j -dims i=250,j=250,k=100 -density 0.05
//	samsim -expr 'x(i) = B(i,j) * c(j)' -mtx B=matrix.mtx -density 0.1
//	samsim -expr 'x(i) = B(i,j) * c(j)' -par 4     # 4-lane parallel graph
//	samsim -expr 'x(i) = B(i,j) * c(j)' -skip      # galloping intersections
//	samsim -expr 'x(i) = B(i,j) * c(j)' -O 1       # run the graph optimizer
//	samsim -expr 'x(i) = B(i,j) * c(j)' -O 1 -dot  # print the optimized graph
//	samsim -expr 'x(i) = B(i,j) * c(j)' -engine comp  # compiled co-iteration engine
//	samsim -expr 'x(i) = B(i,j) * c(j)' -emit spmv.sambc  # write a program artifact
//	samsim -load spmv.sambc                        # run a program artifact
//	samsim -expr 'x(i) = B(i,j) * c(j)' -trace     # phase timing breakdown
//	samsim -expr 'y(i) = M(i,j) * x(j)' -iterate 20 -fixvar x -fixmode pagerank
//
// -iterate runs the compiled program to a fixpoint instead of once: each
// iteration folds the output back into the -fixvar input under the -fixmode
// update rule (power, pagerank, reach) until the L1 step delta reaches -tol
// or the iteration budget runs out (see sim.RunFixpoint). The gold check
// replays the same iterations against the dense evaluator. -iterate works in
// -load mode too — the artifact's embedded statement names the operands.
//
// -trace records phase spans (compile or artifact decode, bind, run,
// assemble) through the same internal/obs recorder the server exposes via
// ?trace=1, and prints them as an indented tree with the trace id after the
// summary. On the compiled engine, run has one child per executed step, named
// by its block label (under per-lane children on parallel plans): a fused
// leaf level is one line under its reducer's label.
//
// -emit compiles (and, with -O, optimizes) the statement, encodes the
// compiled program into the portable artifact format (internal/prog), writes
// it to the given file, and exits without simulating — the artifact-side
// analogue of -dot. -load is the other half: it decodes an artifact and runs
// it directly on the compiled engine without -expr, recompiling nothing;
// inputs are synthesized (or -mtx-bound) against the statement embedded in
// the artifact, so -dims/-density/-seed/-check all work as usual. Only the
// compiled engine can run a loaded artifact ("comp", the default under
// -load); the cycle engines need the source graph.
//
// Flag combinations are validated before simulation: an unknown -engine
// prints the registered engine list, the comp engine (no cycle model)
// rejects -queue with a clear error up front instead of silently ignoring
// it, -O rejects levels the optimizer does not know, and
// -load rejects the compilation-shaping flags (-O, -par, -skip, -locate,
// -order, -dot) that a pre-compiled artifact would otherwise ignore.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"

	"sam/internal/custard"
	"sam/internal/lang"
	"sam/internal/obs"
	"sam/internal/opt"
	"sam/internal/prog"
	"sam/internal/sim"
	"sam/internal/tensor"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the tool against explicit argument and output streams so the
// smoke tests can drive it in-process.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("samsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expr := fs.String("expr", "", "tensor index notation statement")
	order := fs.String("order", "", "comma-separated loop order")
	dimSpec := fs.String("dims", "", "variable dimensions, e.g. i=250,j=250,k=100 (default 100 each)")
	density := fs.Float64("density", 0.05, "density of synthetic inputs")
	mtx := fs.String("mtx", "", "bind matrices from Matrix Market files, e.g. B=path.mtx")
	seed := fs.Int64("seed", 1, "random seed for synthetic inputs")
	queueCap := fs.Int("queue", 0, "inter-block queue capacity (0 = unbounded)")
	par := fs.Int("par", 0, "parallelize the graph across this many lanes (0/1 = sequential)")
	skip := fs.Bool("skip", false, "fuse two-way intersections into galloping (coordinate-skipping) blocks")
	locate := fs.Bool("locate", false, "rewrite intersections against locatable (dense) levels into locator blocks")
	optLevel := fs.Int("O", 0, "graph optimization level (0 = paper-faithful graph, 1 = full rewrite pipeline)")
	dot := fs.Bool("dot", false, "print the compiled (and, with -O 1, optimized) graph in Graphviz DOT and exit")
	emit := fs.String("emit", "", "write the compiled program as a portable artifact to this file and exit")
	load := fs.String("load", "", "run a program artifact file instead of compiling -expr")
	engine := fs.String("engine", "", "simulation engine: event (default), naive, or comp")
	iterate := fs.Int("iterate", 0, "iterate the program to a fixpoint, at most this many times (0 = single run)")
	fixvar := fs.String("fixvar", "x", "fixpoint state input the update rule rewrites (with -iterate)")
	fixmode := fs.String("fixmode", "power", "fixpoint update rule: power, pagerank, or reach (with -iterate)")
	damping := fs.Float64("damping", 0, "pagerank damping factor (0 = the conventional 0.85; with -iterate)")
	tol := fs.Float64("tol", 0, "stop iterating once the L1 step delta reaches this (0 = run all iterations)")
	trace := fs.Bool("trace", false, "record phase spans and print a timing breakdown")
	check := fs.Bool("check", true, "verify against the dense gold evaluator")
	verbose := fs.Bool("v", false, "print the output tensor")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "samsim:", err)
		return 1
	}
	if *load != "" && *expr != "" {
		return fail(fmt.Errorf("-load runs an existing artifact; it cannot be combined with -expr"))
	}
	if *load != "" && *emit != "" {
		return fail(fmt.Errorf("-emit writes a fresh compilation; it cannot be combined with -load"))
	}
	if *load != "" {
		// An artifact is already compiled, scheduled and optimized; flags
		// that shape compilation would be silently ignored, so reject them
		// the same way the -expr/-emit/-queue combinations are.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"O", "par", "skip", "locate", "order", "dot"} {
			if set[name] {
				return fail(fmt.Errorf("-%s shapes compilation and has no effect on a pre-compiled artifact (drop -%s in -load mode)", name, name))
			}
		}
	}
	if *load == "" && *expr == "" {
		fmt.Fprintln(stderr, "samsim: -expr is required")
		fs.Usage()
		return 2
	}
	if *optLevel < 0 || *optLevel > opt.MaxLevel {
		return fail(fmt.Errorf("unknown -O level %d (the optimizer knows levels 0..%d)", *optLevel, opt.MaxLevel))
	}
	var fx *sim.Fixpoint
	if *iterate != 0 {
		fx = &sim.Fixpoint{Var: *fixvar, MaxIters: *iterate, Tol: *tol, Mode: *fixmode, Damping: *damping}
		if err := fx.Validate(); err != nil {
			return fail(err)
		}
	} else {
		// The fixpoint-shaping flags do nothing without -iterate; reject them
		// instead of silently ignoring a typo'd invocation.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		for _, name := range []string{"fixvar", "fixmode", "damping", "tol"} {
			if set[name] {
				return fail(fmt.Errorf("-%s shapes fixpoint iteration and needs -iterate", name))
			}
		}
	}

	dims := map[string]int{}
	if *dimSpec != "" {
		for _, part := range strings.Split(*dimSpec, ",") {
			kv := strings.SplitN(part, "=", 2)
			if len(kv) != 2 {
				return fail(fmt.Errorf("bad dimension %q", part))
			}
			n, err := strconv.Atoi(kv[1])
			if err != nil {
				return fail(err)
			}
			dims[kv[0]] = n
		}
	}

	// One trace covers the whole invocation when -trace is set; a nil trace
	// records nothing, so the Start/End calls below stay unconditional.
	var tr *obs.Trace
	if *trace {
		tr = obs.NewTrace()
	}
	printTrace := func() {
		if tr != nil {
			fmt.Fprintf(stdout, "trace:       %s\n%s", tr.ID(), obs.RenderSpans(tr.Spans()))
		}
	}

	if *load != "" {
		// Artifact mode: decode the program, validate the engine choice, and
		// run without compiling anything. The statement embedded at encode
		// time drives input synthesis and the gold check.
		data, err := os.ReadFile(*load)
		if err != nil {
			return fail(err)
		}
		dec := tr.Start("decode")
		bp, err := prog.Decode(data)
		if err != nil {
			return fail(err)
		}
		p, err := sim.NewProgramFromArtifact(bp)
		dec.End()
		if err != nil {
			return fail(err)
		}
		kind := sim.EngineKind(*engine)
		if kind == "" {
			kind = sim.EngineComp
		}
		if err := p.CheckEngine(kind); err != nil {
			return fail(err)
		}
		if *queueCap != 0 {
			return fail(fmt.Errorf("-queue models finite buffering in the cycle engines; the %s engine has no cycle model (drop -queue)", kind))
		}
		e, err := lang.Parse(bp.IR().Expr)
		if err != nil {
			return fail(fmt.Errorf("artifact %s embeds unparseable statement %q: %w", *load, bp.IR().Expr, err))
		}
		inputs, err := buildInputs(e, *mtx, dims, *density, *seed)
		if err != nil {
			return fail(err)
		}
		if fx != nil {
			fmt.Fprintf(stdout, "artifact:    %s (%d bytes, format v%d)\n", *load, len(data), prog.Version)
			fmt.Fprintf(stdout, "expression:  %s\n", e)
			return runFixpointCLI(stdout, stderr, p, e, inputs, *fx,
				sim.Options{Engine: kind, Trace: tr}, *check, *verbose, printTrace)
		}
		res, err := p.Run(inputs, sim.Options{Engine: kind, Trace: tr})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "artifact:    %s (%d bytes, format v%d)\n", *load, len(data), prog.Version)
		fmt.Fprintf(stdout, "expression:  %s\n", e)
		fmt.Fprintf(stdout, "fingerprint: %s\n", bp.Fingerprint())
		printInputs(stdout, inputs)
		fmt.Fprintf(stdout, "engine:      %s\n", kind)
		fmt.Fprintf(stdout, "output:      %v, %d nonzeros\n", res.Output.Dims, res.Output.NNZ())
		if *check {
			want, err := lang.Gold(e, inputs)
			if err != nil {
				return fail(err)
			}
			if err := tensor.Equal(res.Output, want, 1e-6); err != nil {
				return fail(fmt.Errorf("gold check FAILED: %w", err))
			}
			fmt.Fprintln(stdout, "gold check:  PASSED")
		}
		if *verbose {
			for _, pt := range res.Output.Pts {
				fmt.Fprintf(stdout, "  %v = %g\n", pt.Crd, pt.Val)
			}
		}
		printTrace()
		return 0
	}

	e, err := lang.Parse(*expr)
	if err != nil {
		return fail(err)
	}

	sched := lang.Schedule{Par: *par, UseSkip: *skip, UseLocators: *locate}
	if *order != "" {
		sched.LoopOrder = strings.Split(*order, ",")
	}
	cs := tr.Start("compile")
	g, err := custard.Compile(e, nil, sched)
	if err != nil {
		return fail(err)
	}
	// Optimize the lowered graph here rather than through Schedule.Opt: the
	// returned report carries the removed-block delta for the summary line
	// without a second compilation.
	var optReport *opt.Report
	if *optLevel > 0 {
		if optReport, err = opt.Optimize(g, *optLevel); err != nil {
			return fail(err)
		}
	}
	cs.End()
	if *dot {
		// Print the graph that would simulate — optimized when -O says so —
		// and stop before binding any data; -dot is a compile-time
		// inspection mode.
		fmt.Fprint(stdout, g.DOT())
		return 0
	}
	if *emit != "" {
		// Encode the compiled (and possibly optimized) program into the
		// portable artifact format and stop, the artifact analogue of -dot:
		// no data is bound and nothing simulates.
		enc, err := prog.Encode(g)
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*emit, enc, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "samsim: wrote %d-byte artifact (format v%d, fingerprint %s) to %s\n",
			len(enc), prog.Version, g.Fingerprint(), *emit)
		return 0
	}

	inputs, err := buildInputs(e, *mtx, dims, *density, *seed)
	if err != nil {
		return fail(err)
	}

	// Validate the flag combination before simulating: a clear error now
	// beats a silently ignored flag (comp has no cycle model, so -queue
	// would do nothing). An unknown -engine prints the registered engine
	// list.
	kind := sim.EngineKind(*engine)
	if err := sim.CheckEngineKind(kind, sim.Engines()); err != nil {
		return fail(err)
	}
	if kind == "" {
		kind = sim.EngineEvent
	}
	if kind == sim.EngineComp && *queueCap != 0 {
		return fail(fmt.Errorf("-queue models finite buffering in the cycle engines; the %s engine has no cycle model (drop -queue or use -engine event/naive)", kind))
	}
	if fx != nil {
		p, err := sim.NewProgram(g)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "expression:  %s\n", e)
		fmt.Fprintf(stdout, "graph:       %d nodes, %d edges\n", len(g.Nodes), len(g.Edges))
		if optReport != nil {
			fmt.Fprintf(stdout, "optimizer:   -O%d removed %d of %d blocks\n",
				optReport.Level, optReport.NodesBefore-optReport.NodesAfter, optReport.NodesBefore)
		}
		return runFixpointCLI(stdout, stderr, p, e, inputs, *fx,
			sim.Options{QueueCap: *queueCap, Engine: kind, Trace: tr}, *check, *verbose, printTrace)
	}
	res, err := sim.Run(g, inputs, sim.Options{QueueCap: *queueCap, Engine: kind, Trace: tr})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "expression:  %s\n", e)
	fmt.Fprintf(stdout, "graph:       %d nodes, %d edges\n", len(g.Nodes), len(g.Edges))
	if optReport != nil {
		fmt.Fprintf(stdout, "optimizer:   -O%d removed %d of %d blocks\n",
			optReport.Level, optReport.NodesBefore-optReport.NodesAfter, optReport.NodesBefore)
	}
	if *par > 1 {
		fmt.Fprintf(stdout, "lanes:       %d\n", *par)
	}
	printInputs(stdout, inputs)
	if res.Cycles > 0 { // comp has no cycle model
		fmt.Fprintf(stdout, "cycles:      %d\n", res.Cycles)
	}
	fmt.Fprintf(stdout, "output:      %v, %d nonzeros\n", res.Output.Dims, res.Output.NNZ())
	if *check {
		want, err := lang.Gold(e, inputs)
		if err != nil {
			return fail(err)
		}
		if err := tensor.Equal(res.Output, want, 1e-6); err != nil {
			return fail(fmt.Errorf("gold check FAILED: %w", err))
		}
		fmt.Fprintln(stdout, "gold check:  PASSED")
	}
	if *verbose {
		for _, p := range res.Output.Pts {
			fmt.Fprintf(stdout, "  %v = %g\n", p.Crd, p.Val)
		}
	}
	printTrace()
	return 0
}

// runFixpointCLI drives -iterate mode: run the program to a fixpoint, print
// the iteration summary, and — with -check — replay the identical iterations
// against the dense gold evaluator under the same update rule.
func runFixpointCLI(stdout, stderr io.Writer, p *sim.Program, e *lang.Einsum,
	inputs map[string]*tensor.COO, fx sim.Fixpoint, opt sim.Options,
	check, verbose bool, printTrace func()) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "samsim:", err)
		return 1
	}
	res, err := sim.RunFixpoint(p, inputs, fx, opt)
	if err != nil {
		return fail(err)
	}
	printInputs(stdout, inputs)
	fmt.Fprintf(stdout, "engine:      %s\n", opt.Engine)
	fmt.Fprintf(stdout, "iterations:  %d (%s mode, converged=%v)\n", res.Iterations, fx.Mode, res.Converged)
	fmt.Fprintf(stdout, "delta:       %g (last L1 step)\n", res.Deltas[len(res.Deltas)-1])
	if res.Cycles > 0 {
		fmt.Fprintf(stdout, "cycles:      %d (total across iterations)\n", res.Cycles)
	}
	fmt.Fprintf(stdout, "output:      %v, %d nonzeros\n", res.Output.Dims, res.Output.NNZ())
	if check {
		cur := maps.Clone(inputs)
		// The same iterations, as many as the program ran, with the dense
		// evaluator as the step: a gold delta a hair off Tol must not stop the
		// replay on a different one.
		replay := fx
		replay.MaxIters, replay.Tol = res.Iterations, 0
		want, err := replay.Iterate(inputs[fx.Var], func(x *tensor.COO) (*tensor.COO, int, error) {
			cur[fx.Var] = x
			y, err := lang.Gold(e, cur)
			return y, 0, err
		})
		if err != nil {
			return fail(err)
		}
		if err := tensor.Equal(res.Output, want.Output, 1e-6); err != nil {
			return fail(fmt.Errorf("gold check FAILED: %w", err))
		}
		fmt.Fprintln(stdout, "gold check:  PASSED")
	}
	if verbose {
		for _, pt := range res.Output.Pts {
			fmt.Fprintf(stdout, "  %v = %g\n", pt.Crd, pt.Val)
		}
	}
	printTrace()
	return 0
}

// printInputs prints one summary line per operand, in name order: ranging
// over the map would print the same command's lines in a different order run
// to run.
func printInputs(stdout io.Writer, inputs map[string]*tensor.COO) {
	for _, name := range slices.Sorted(maps.Keys(inputs)) {
		t := inputs[name]
		fmt.Fprintf(stdout, "input %-6s %v, %d nonzeros\n", name+":", t.Dims, t.NNZ())
	}
}

// buildInputs binds -mtx Matrix Market files and synthesizes every remaining
// operand of the statement with seeded uniform-random sparsity. It is shared
// by the compile path and -load, which recovers the statement from the
// artifact's embedded metadata. Index variables missing from dims default to
// 100.
func buildInputs(e *lang.Einsum, mtxSpec string, dims map[string]int, density float64, seed int64) (map[string]*tensor.COO, error) {
	inputs := map[string]*tensor.COO{}
	if mtxSpec != "" {
		for _, part := range strings.Split(mtxSpec, ",") {
			kv := strings.SplitN(part, "=", 2)
			if len(kv) != 2 {
				return nil, fmt.Errorf("bad -mtx binding %q", part)
			}
			f, err := os.Open(kv[1])
			if err != nil {
				return nil, err
			}
			m, err := tensor.ReadMatrixMarket(kv[0], f)
			f.Close()
			if err != nil {
				return nil, err
			}
			inputs[kv[0]] = m
		}
	}
	dimOf := func(v string) int {
		if d, ok := dims[v]; ok {
			return d
		}
		return 100
	}
	rng := rand.New(rand.NewSource(seed))
	for _, a := range e.Accesses() {
		if _, ok := inputs[a.Tensor]; ok {
			continue
		}
		if len(a.Idx) == 0 {
			s := tensor.NewCOO(a.Tensor)
			s.Append(rng.Float64() + 0.5)
			inputs[a.Tensor] = s
			continue
		}
		ds := make([]int, len(a.Idx))
		total := 1
		for i, v := range a.Idx {
			ds[i] = dimOf(v)
			total *= ds[i]
		}
		nnz := int(density * float64(total))
		if nnz < 1 {
			nnz = 1
		}
		inputs[a.Tensor] = tensor.UniformRandom(a.Tensor, rng, nnz, ds...)
	}
	return inputs, nil
}
