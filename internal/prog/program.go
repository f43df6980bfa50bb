package prog

import (
	"sam/internal/bind"
	"sam/internal/comp"
	"sam/internal/tensor"
)

// Program is a loaded artifact: the decoded IR and the compiled program
// materialized from it. It carries everything execution
// needs — operand bindings and output metadata travel inside the IR — so a
// process that never saw the source graph can still bind inputs and run.
// A Program is immutable and safe for concurrent Run calls.
type Program struct {
	ir *comp.IR
	cp *comp.Program
}

// IR returns the decoded intermediate form.
func (p *Program) IR() *comp.IR { return p.ir }

// Compiled returns the materialized compiled program backing the artifact.
func (p *Program) Compiled() *comp.Program { return p.cp }

// Fingerprint returns the source graph's fingerprint embedded at encode
// time, the artifact's cache identity.
func (p *Program) Fingerprint() string { return p.ir.Fingerprint }

// Name returns the encoded graph name.
func (p *Program) Name() string { return p.ir.Name }

// Plan returns the operand binding plan reconstructed from the artifact's
// embedded binding metadata.
func (p *Program) Plan() *bind.Plan {
	return bind.NewPlanFromParts(p.ir.Bindings, p.ir.OutputDims)
}

// Run binds the inputs against the artifact's embedded metadata and executes
// the program; no source graph is needed.
func (p *Program) Run(inputs map[string]*tensor.COO) (*tensor.COO, error) {
	plan := p.Plan()
	bound, err := plan.Operands(inputs)
	if err != nil {
		return nil, err
	}
	dims, err := plan.OutputDims(inputs)
	if err != nil {
		return nil, err
	}
	return p.cp.Run(bound, dims)
}
