package comp

// Hooks for the context-pool test: the pool and its miss count are private.

func (p *Program) PutCtx(rc *RunCtx)  { p.putCtx(rc) }
func (p *Program) SetMisses(n uint32) { p.misses.Store(n) }
func (p *Program) Misses() uint32     { return p.misses.Load() }

// TakeParked removes one parked context, reporting whether there was one.
func (p *Program) TakeParked() bool { return p.pool.Get() != nil }
