package inference

import (
	"fmt"

	"repro/internal/prob"
)

// Method names accepted by ByName — the request-level vocabulary the
// serving layer threads through to the engine.
const (
	NameOmega    = "omega"
	NameExact    = "exact"
	NameAdaptive = "adaptive"
)

// ByName resolves a request-level method name. The empty string is
// the default (Ω — the paper's scalable estimator and the engine's
// historical behavior); "adaptive" honors maxStates when positive
// (otherwise MaxExactStates); "exact" refuses oversized groups with
// ErrTooLarge instead of degrading, surfaced through TryPosteriors.
func ByName(name string, maxStates int) (Method, error) {
	switch name {
	case "", NameOmega:
		return Omega{}, nil
	case NameExact:
		return Exact{}, nil
	case NameAdaptive:
		return Adaptive{MaxStates: maxStates}, nil
	}
	return nil, fmt.Errorf("inference: unknown method %q (want omega, exact, or adaptive)", name)
}

// TryPosteriors runs a method with explicit error reporting: Exact
// routes through ExactPosteriors so an oversized group returns
// ErrTooLarge instead of panicking; every other method is total. first
// is the class's sharer table, as FirstSharers fills it for priors; Ω
// takes it instead of looking the priors up again.
func TryPosteriors(m Method, priors []prob.Dist, counts []int, first []int) ([]prob.Dist, error) {
	switch m.(type) {
	case Exact:
		return ExactPosteriors(priors, counts)
	case Omega:
		sc := scratchPool.Get().(*scratch)
		out := sc.omega(priors, counts, first)
		scratchPool.Put(sc)
		return out, nil
	}
	return m.Posteriors(priors, counts), nil
}
