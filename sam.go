// Package sam is a Go reproduction of "The Sparse Abstract Machine"
// (Hsu et al., ASPLOS 2023): an abstract machine model for sparse tensor
// algebra on streaming dataflow accelerators, together with the Custard
// compiler from tensor index notation to SAM dataflow graphs and a
// cycle-approximate simulator.
//
// The high-level flow is: parse or write a tensor index notation statement,
// compile it with per-tensor formats and a loop-order schedule into a SAM
// graph, bind input tensors, and simulate:
//
//	b := sam.RandomTensor("B", rng, 1000, 250, 250)
//	c := sam.RandomTensor("c", rng, 100, 250)
//	g, err := sam.Compile("x(i) = B(i,j) * c(j)", nil, sam.Schedule{})
//	res, err := sam.Simulate(g, sam.Inputs{"B": b, "c": c}, sam.Options{})
//	fmt.Println(res.Cycles, res.Output)
//
// Simulation runs on one of three engines selected by Options.Engine: the
// default event-driven ready-set scheduler (EngineEvent), which ticks only
// blocks with newly visible input, freed backpressure space, or pending
// internal work; the naive tick-all reference loop (EngineNaive), which is
// bit-identical and exists for differential testing; and the compiled
// co-iteration engine (EngineComp), which lowers the graph once into a tree
// of Go closures that walk the bound fibertree storage directly — no token
// queues, no per-cycle scheduling — and is the fastest way to compute a
// kernel's output. EngineComp computes outputs only — no cycle counts, no
// stream statistics — and rejects, up front in Program.CheckEngine and in
// Run, the one block family it cannot lower: the bitvector pipeline built by
// CompileBitvector, which runs on the cycle engines.
//
// # Artifacts
//
// EncodeProgram serializes a compiled graph's lowered program into a
// versioned, checksummed, canonical byte artifact; DecodeProgram loads one
// into a runnable Program in a process that never saw the source graph —
// the cross-process analogue of NewProgram. Artifact-backed programs run
// on EngineComp, whose lowering is what the artifact serializes; the cycle
// engines need the source graph and reject them up front. samsim -emit/-load round-trips artifacts on the command line,
// and samserve -artifacts persists every compiled program to a disk cache
// keyed by the canonical request key and format version, so a restarted
// server decodes instead of recompiling (see the README's Artifacts
// section for the format layout, versioning rules, and cache semantics).
//
// # Serving
//
// The paper treats a compiled graph as a reusable hardware program: compile
// once, stream many tensors through it. NewProgram captures that split —
// it precomputes everything input-independent (validation, wiring plan,
// binding plan, fingerprint) so repeated Program.Run calls pay only input
// binding and net construction:
//
//	p, err := sam.CompileProgram("x(i) = B(i,j) * c(j)", nil, sam.Schedule{})
//	res1, err := p.Run(sam.Inputs{"B": b1, "c": c1}, sam.Options{})
//	res2, err := p.Run(sam.Inputs{"B": b2, "c": c2}, sam.Options{})
//
// NewServer wraps that in a network service — a compiled-program LRU cache,
// an admission-controlled job queue over a fixed worker pool, and an
// HTTP/JSON API — run by cmd/samserve (see the README's Serving section for
// the wire format and a curl walkthrough).
//
// # Observability
//
// The internal/obs package provides a dependency-free labeled metrics
// registry and a per-request phase tracer, both wired through the stack.
// The server exposes every counter and latency histogram as Prometheus
// text on GET /metrics (the same registry backs GET /v1/stats), mounts
// net/http/pprof behind samserve -pprof, and records a span breakdown —
// admission (cache lookup, compile or artifact decode), queue wait, bind,
// engine run with per-step children on comp, assembly — for any request
// carrying ?trace=1. Library callers opt in per run by setting Options.Trace:
//
//	tr := sam.NewTrace()
//	res, err := p.Run(inputs, sam.Options{Engine: sam.EngineComp, Trace: tr})
//	fmt.Print(sam.RenderSpans(tr.Spans()))
//
// A nil Trace records nothing and costs a nil check, so the warm
// compiled path stays allocation-free with tracing off. samsim -trace
// prints the same breakdown on the command line, and the README's
// Observability section lists every metric family and span name.
//
// # Optimization
//
// Schedule{Opt: 1} runs the graph optimizer (internal/opt) between
// compilation and program build. Custard lowers one block per paper
// definition, so compiled graphs carry redundancy a hardware program would
// not; the optimizer's rewrite passes — common-stream deduplication,
// duplicate-way merge collapse and dead-block elimination — remove it while
// keeping the output tensor bit-identical (proven by the differential and
// fuzz battery in internal/opt). Level 0, the default, compiles the
// paper-faithful graph Table 1 counts. The level is part of the canonical
// program-cache key, so servers never alias programs across levels:
//
//	g, err := sam.Compile("X(i,j) = B(i,j) * B(i,j)", nil, sam.Schedule{Opt: 1})
//
// # Parallelization
//
// Schedule{Par: N} compiles an N-lane parallel graph (paper Section 4.4):
// the outermost loop variable's merged streams fork element-wise across the
// lanes, the downstream compute sub-graph is replicated once per lane, and
// the lanes join back before tensor construction — through one round-robin
// serializer block per output level (the innermost carrying the value stream
// along) when the outermost variable is kept in the output, or through a
// binary tree of cross-lane combiners that add lane partials when it is
// reduced. Outputs match the sequential graph on every engine, and the
// event-driven scheduler exposes the lane concurrency directly in simulated
// cycles (near-linear on SpMV and SpM*SpM):
//
//	g, err := sam.Compile("X(i,j) = B(i,k) * C(k,j)", nil, sam.Schedule{Par: 4})
//
// Independent simulations batch onto a worker pool with SimulateBatch:
//
//	jobs := []sam.Job{{Name: "ikj", Graph: g1, Inputs: in}, {Name: "kij", Graph: g2, Inputs: in}}
//	results, err := sam.SimulateBatch(jobs, sam.Options{})
//
// The subsystems live in internal packages: internal/core implements the
// dataflow blocks (the paper's primary contribution), internal/custard the
// compiler, internal/opt the graph-optimizer pass pipeline,
// internal/sim the cycle engines and the batch runner,
// internal/comp the compiled co-iteration engine,
// internal/prog the portable artifact format of its lowering,
// internal/memmodel the finite-memory tiling model, and
// internal/experiments the harnesses that regenerate every table and figure
// of the paper's evaluation.
package sam

import (
	"math/rand"

	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/obs"
	"sam/internal/opt"
	"sam/internal/prog"
	"sam/internal/serve"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// Tensor is a coordinate-list sparse tensor (order-0 tensors are scalars).
type Tensor = tensor.COO

// Inputs binds tensor names to tensors for simulation.
type Inputs = map[string]*tensor.COO

// Graph is a compiled SAM dataflow graph.
type Graph = graph.Graph

// Schedule selects the dataflow (loop) order and optimization rewrites.
// Schedule.Opt picks the graph-optimization level: 0 (default) compiles the
// paper-faithful graph, 1 runs the full rewrite pipeline of internal/opt
// (bit-identical outputs, fewer blocks, fewer simulated cycles); levels
// outside [0, MaxOptLevel] fail compilation.
type Schedule = lang.Schedule

// MaxOptLevel is the highest Schedule.Opt level the optimizer knows.
const MaxOptLevel = opt.MaxLevel

// OptimizeGraph runs the optimizer pipeline in place on an already-compiled
// graph and reports what changed. Compile with Schedule.Opt set is the usual
// entry point; this is for callers holding a graph built elsewhere.
func OptimizeGraph(g *Graph, level int) (*opt.Report, error) { return opt.Optimize(g, level) }

// Formats maps tensor names to per-level storage formats.
type Formats = lang.Formats

// Format is one tensor's data-representation specification.
type Format = lang.Format

// LevelFormat is the storage format of one fibertree level.
type LevelFormat = fiber.Format

// Options configures the cycle simulator, including engine selection
// (Options.Engine) and the SimulateBatch worker pool (Options.Workers).
type Options = sim.Options

// Result carries simulated cycles, the output tensor, and stream statistics.
type Result = sim.Result

// EngineKind selects a graph executor in Options.Engine.
type EngineKind = sim.EngineKind

// The available engines: the default event-driven ready-set scheduler, the
// naive tick-all reference loop, and the compiled co-iteration engine
// (outputs bit-identical to the cycle engines; graphs it cannot lower fall
// back to the event engine).
const (
	EngineEvent = sim.EngineEvent
	EngineNaive = sim.EngineNaive
	EngineComp  = sim.EngineComp
)

// Engines lists every registered engine kind.
func Engines() []EngineKind { return sim.Engines() }

// Job is one graph + input binding for SimulateBatch. Setting Job.Program
// instead of Job.Graph runs a precompiled Program, skipping per-job
// validation and planning.
type Job = sim.Job

// Program is a compiled, reusable SAM program: a graph plus the
// precomputed, input-independent execution plan (validated wiring, operand
// binding plan, canonical fingerprint). Build one with NewProgram or
// CompileProgram and call Run per request; a Program is immutable and safe
// for concurrent Run calls. This is the unit the serving cache stores.
type Program = sim.Program

// Server is the SAM program service: a compiled-program LRU cache keyed by
// the canonical (expression, formats, schedule) key (lang.CanonicalKey), an
// admission-controlled asynchronous job queue over a fixed worker pool
// (one job per worker at a time), and an HTTP/JSON API (POST /v1/evaluate, POST /v1/jobs,
// GET /v1/jobs/{id}, GET /v1/stats). Mount it as an http.Handler; Close
// drains gracefully: admission stops and every queued and running job
// finishes. cmd/samserve is the standalone binary.
type Server = serve.Server

// ServerConfig sizes a Server: worker pool, admission queue depth and
// program-cache capacity. It also carries the
// observability switches: EnablePprof mounts net/http/pprof under
// /debug/pprof/, and AccessLog receives one structured line per request.
type ServerConfig = serve.Config

// Trace is a per-request phase recorder: named spans with monotonic
// timestamps and parent links. Set one on Options.Trace to capture where a
// run spends its time (bind, engine run with per-step children on comp,
// assembly);
// every method on a nil *Trace is a no-op, so instrumented paths cost a
// nil check when tracing is off. The serving layer creates one per request
// carrying ?trace=1 and returns the spans in the response.
type Trace = obs.Trace

// Span is a handle to one in-progress trace span; the zero Span is inert.
type Span = obs.Span

// SpanData is one finished span in a trace snapshot: name, parent index
// (-1 for top-level), and start/duration in nanoseconds from trace start.
type SpanData = obs.SpanData

// NewTrace starts an empty trace with a fresh process-unique ID.
func NewTrace() *Trace { return obs.NewTrace() }

// RenderSpans formats a span snapshot as an indented text tree, the same
// rendering samsim -trace prints.
func RenderSpans(spans []SpanData) string { return obs.RenderSpans(spans) }

// Level storage formats (paper Sections 3.1 and 4.3).
const (
	Dense      = fiber.Dense
	Compressed = fiber.Compressed
	Bitvector  = fiber.Bitvector
	LinkedList = fiber.LinkedList
)

// NewTensor creates an empty tensor with the given shape.
func NewTensor(name string, dims ...int) *Tensor { return tensor.NewCOO(name, dims...) }

// ScalarTensor wraps a value as an order-0 operand.
func ScalarTensor(name string, v float64) *Tensor {
	c := tensor.NewCOO(name)
	c.Append(v)
	return c
}

// RandomTensor draws a tensor with nnz uniformly random nonzeros.
func RandomTensor(name string, rng *rand.Rand, nnz int, dims ...int) *Tensor {
	return tensor.UniformRandom(name, rng, nnz, dims...)
}

// Uniform builds a format using the same storage at every level.
func Uniform(order int, f fiber.Format) Format { return lang.Uniform(order, f) }

// CSR is the dense-outer, compressed-inner format.
func CSR(order int) Format { return lang.CSR(order) }

// Parse reads one tensor index notation statement.
func Parse(expr string) (*lang.Einsum, error) { return lang.Parse(expr) }

// Compile lowers a tensor index notation statement to a SAM dataflow graph
// (Custard, paper Section 5). A nil Formats defaults every tensor to fully
// compressed levels; an empty Schedule uses the statement's natural variable
// order.
func Compile(expr string, formats Formats, sched Schedule) (*Graph, error) {
	e, err := lang.Parse(expr)
	if err != nil {
		return nil, err
	}
	return custard.Compile(e, formats, sched)
}

// CompileBitvector lowers an elementwise multiplication over bitvector-level
// operands to the vectorized bitvector pipeline (paper Section 4.3).
func CompileBitvector(expr string, formats Formats) (*Graph, error) {
	e, err := lang.Parse(expr)
	if err != nil {
		return nil, err
	}
	return custard.CompileBitvector(e, formats)
}

// Simulate executes a compiled graph on the engine opt.Engine selects
// (paper Section 6; the event-driven cycle-accurate scheduler by default)
// and assembles the output tensor.
func Simulate(g *Graph, inputs Inputs, opt Options) (*Result, error) {
	return sim.Run(g, inputs, opt)
}

// SimulateBatch executes many independent graph + input bindings
// concurrently over a worker pool (opt.Workers goroutines, GOMAXPROCS by
// default) and returns results in job order. Each job runs on its own net
// with nothing shared, so results are identical to sequential Simulate
// calls with the same Options.
func SimulateBatch(jobs []Job, opt Options) ([]*Result, error) {
	return sim.RunBatch(jobs, opt)
}

// NewProgram precompiles a graph into a reusable Program: the graph is
// validated and its execution plan built once, so every Program.Run pays
// only input binding and net construction.
func NewProgram(g *Graph) (*Program, error) { return sim.NewProgram(g) }

// CompileProgram is Compile followed by NewProgram: one call from tensor
// index notation to a reusable program.
func CompileProgram(expr string, formats Formats, sched Schedule) (*Program, error) {
	g, err := Compile(expr, formats, sched)
	if err != nil {
		return nil, err
	}
	return sim.NewProgram(g)
}

// Fixpoint describes an iterative driver around one compiled program: the
// program runs repeatedly with its output folded back into the input named
// Fixpoint.Var by the selected update rule (power iteration, damped
// PageRank, or monotone reachability) until the L1 step delta reaches
// Fixpoint.Tol or MaxIters runs complete. The program compiles once; every
// iteration reuses it.
type Fixpoint = sim.Fixpoint

// FixpointResult reports a fixpoint run: final state, iteration count,
// convergence, per-iteration deltas, and total simulated cycles.
type FixpointResult = sim.FixpointResult

// Fixpoint update rules for Fixpoint.Mode: plain power iteration (x' = y),
// the damped PageRank update (x'ᵢ = d·yᵢ + (1−d)/N), and monotone
// reachability saturation (x'ᵢ = 1 where xᵢ ≠ 0 or yᵢ ≠ 0 — frontier-less
// BFS when the program computes y = A·x).
const (
	FixpointPower    = sim.FixpointPower
	FixpointPageRank = sim.FixpointPageRank
	FixpointReach    = sim.FixpointReach
)

// RunFixpoint drives a compiled program to a fixpoint, the library form of
// the PageRank/BFS loop (samsim -iterate and the server's fixpoint requests
// use the same driver):
//
//	p, err := sam.CompileProgram("y(i) = M(i,j) * x(j)", nil, sam.Schedule{})
//	fr, err := sam.RunFixpoint(p, sam.Inputs{"M": m, "x": x0},
//		sam.Fixpoint{Var: "x", MaxIters: 50, Tol: 1e-9, Mode: sam.FixpointPageRank},
//		sam.Options{Engine: sam.EngineComp})
//
// The caller's inputs map is not mutated; fr.Output is the converged state.
func RunFixpoint(p *Program, inputs Inputs, fx Fixpoint, opt Options) (*FixpointResult, error) {
	return sim.RunFixpoint(p, inputs, fx, opt)
}

// EncodeProgram serializes a compiled graph's lowered program into the
// portable artifact format (internal/prog): a versioned, CRC-checksummed
// byte form carrying the step bytecode, slot and writer tables, operand
// bindings, and output metadata — everything a process without the source
// graph needs to run it. Encoding is canonical: one graph always produces
// the identical bytes, so artifacts can be cached and compared by content.
func EncodeProgram(g *Graph) ([]byte, error) { return prog.Encode(g) }

// DecodeProgram loads an encoded artifact into a runnable Program, the
// cross-process counterpart of NewProgram. Corrupt, truncated, or
// version-skewed bytes fail with a descriptive error, never a panic. The
// loaded Program carries no source graph: set Options.Engine to EngineComp
// when running it — the cycle engines (the default included) need the
// graph and reject it up front with a descriptive error.
func DecodeProgram(data []byte) (*Program, error) {
	bp, err := prog.Decode(data)
	if err != nil {
		return nil, err
	}
	return sim.NewProgramFromArtifact(bp)
}

// NewServer builds a SAM program service with the given sizing; zero
// fields take defaults.
func NewServer(cfg ServerConfig) *Server { return serve.NewServer(cfg) }

// Evaluate computes the statement directly on dense data — the gold
// reference the simulator is validated against.
func Evaluate(expr string, inputs Inputs) (*Tensor, error) {
	e, err := lang.Parse(expr)
	if err != nil {
		return nil, err
	}
	return lang.Gold(e, inputs)
}

// Equal compares two tensors within tolerance, ignoring explicit zeros.
func Equal(a, b *Tensor, eps float64) error { return tensor.Equal(a, b, eps) }
