package main

// layers.go is the benchmark's only adapter onto the repository's layers:
// every rung of the request ladder is one function here, calling the
// exported function that does that rung's work today. The signatures used
// in this file are the benchmark's contract with the code — a change that
// has to alter one of them files a benchmark issue first, so the ladder's
// rows keep meaning the same thing across commits.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"

	"sam/internal/bind"
	"sam/internal/comp"
	"sam/internal/custard"
	"sam/internal/fiber"
	"sam/internal/graph"
	"sam/internal/lang"
	"sam/internal/opt"
	"sam/internal/prog"
	"sam/internal/serve"
	"sam/internal/sim"
	"sam/internal/tensor"
)

// wireDecode is the shard's (and, today, twice the router's) request
// decode: a strict JSON decode of the whole body, operands included.
func wireDecode(body []byte) (*serve.EvaluateRequest, error) {
	var req serve.EvaluateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// wireEncode is the response encode.
func wireEncode(resp *serve.EvaluateResponse) ([]byte, error) { return json.Marshal(resp) }

// wireTensor puts a COO tensor on the wire (serve's own converter is
// unexported; this is the generator's side of the same format).
func wireTensor(t *tensor.COO) serve.WireTensor {
	w := serve.WireTensor{Dims: t.Dims, Values: make([]float64, 0, len(t.Pts))}
	if t.Order() > 0 {
		w.Coords = make([][]int64, 0, len(t.Pts))
	}
	for _, p := range t.Pts {
		if t.Order() > 0 {
			w.Coords = append(w.Coords, p.Crd)
		}
		w.Values = append(w.Values, p.Val)
	}
	return w
}

// cooOf converts a response tensor back for the gold comparison.
func cooOf(name string, w serve.WireTensor) (*tensor.COO, error) {
	if len(w.Dims) == 0 {
		if len(w.Values) != 1 {
			return nil, fmt.Errorf("scalar output carries %d values", len(w.Values))
		}
		t := tensor.NewCOO(name)
		t.Append(w.Values[0])
		return t, nil
	}
	if len(w.Coords) != len(w.Values) {
		return nil, fmt.Errorf("output has %d coords but %d values", len(w.Coords), len(w.Values))
	}
	t := tensor.NewCOO(name, w.Dims...)
	for i, crd := range w.Coords {
		t.Append(w.Values[i], crd...)
	}
	return t, nil
}

func langParse(expr string) (*lang.Einsum, error) { return lang.Parse(expr) }

func langKey(e *lang.Einsum, sched lang.Schedule) string { return lang.CanonicalKey(e, nil, sched) }

func langGold(e *lang.Einsum, inputs map[string]*tensor.COO) (*tensor.COO, error) {
	return lang.Gold(e, inputs)
}

// custardCompile lowers at Opt 0, so the optimizer's cost is its own rung.
func custardCompile(e *lang.Einsum, sched lang.Schedule) (*graph.Graph, error) {
	sched.Opt = 0
	return custard.Compile(e, nil, sched)
}

// optOptimize runs the level-1 pipeline on a copy and reports the blocks
// it removed.
func optOptimize(g *graph.Graph) (*graph.Graph, int, error) {
	c := g.Clone()
	rep, err := opt.Optimize(c, 1)
	if err != nil {
		return nil, 0, err
	}
	return c, rep.NodesBefore - rep.NodesAfter, nil
}

func simNewProgram(g *graph.Graph) (*sim.Program, error) { return sim.NewProgram(g) }

func compCompile(g *graph.Graph) (*comp.Program, error) { return comp.Compile(g) }

func progEncode(g *graph.Graph) ([]byte, error) { return prog.Encode(g) }

func progDecode(enc []byte) (*prog.Program, error) { return prog.Decode(enc) }

func progRun(p *prog.Program, inputs map[string]*tensor.COO) (*tensor.COO, error) {
	return p.Run(inputs)
}

// bindOperands builds every operand's fibertree, as an inline request
// pays per call and a stored-ref request pays once.
func bindOperands(g *graph.Graph, inputs map[string]*tensor.COO) (map[string]*fiber.Tensor, error) {
	return bind.NewPlan(g).Operands(inputs)
}

func outputDims(g *graph.Graph, inputs map[string]*tensor.COO) ([]int, error) {
	return bind.NewPlan(g).OutputDims(inputs)
}

func compRun(p *comp.Program, bound map[string]*fiber.Tensor, dims []int) (*tensor.COO, error) {
	return p.Run(bound, dims)
}

// eventRun is one cycle-approximate simulation on the default engine,
// binding included (the engine owns it).
func eventRun(p *sim.Program, inputs map[string]*tensor.COO) (*sim.Result, error) {
	return p.Run(inputs, sim.Options{Engine: sim.EngineEvent})
}

// shard is an in-process server, for the handler rung.
type shard = serve.Server

type (
	compProgram = comp.Program
	byteProgram = prog.Program
)

// newShard is an in-process shard with the shipped defaults.
func newShard() *shard { return serve.NewServer(serve.Config{}) }

// handle drives one request through the shard's handler without a socket.
func handle(s *shard, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// evaluateBody renders a request on the wire.
func evaluateBody(r *request) ([]byte, error) {
	er := serve.EvaluateRequest{Expr: r.expr, Inputs: make(map[string]serve.WireTensor, len(r.inputs))}
	if len(r.sched.LoopOrder) > 0 || r.sched.Par > 1 || r.sched.Opt != 0 {
		level := r.sched.Opt
		er.Schedule = &serve.WireSchedule{LoopOrder: r.sched.LoopOrder, Par: r.sched.Par, Opt: &level}
	}
	if r.engine != "" {
		er.Options = &serve.WireOptions{Engine: string(r.engine)}
	}
	for name, t := range r.inputs {
		if ref, ok := r.refs[name]; ok {
			er.Inputs[name] = serve.WireTensor{Ref: ref}
		} else {
			er.Inputs[name] = wireTensor(t)
		}
	}
	return json.Marshal(er)
}

// decodeResponse fully decodes a reply for the gold comparison.
func decodeResponse(body []byte) (*serve.EvaluateResponse, error) {
	var resp serve.EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// shardStats is the /v1/stats body the window deltas are taken from.
type shardStats = serve.StatsResponse

const evaluatePath = "/v1/evaluate"
