// Package repro reproduces "Modeling and Integrating Background
// Knowledge in Data Anonymization" (Li, Li & Zhang, ICDE 2009) as a
// production-quality Go library built entirely on the standard library.
//
// The paper's framework models an adversary's background knowledge as a
// per-individual probability distribution over the sensitive attribute,
// estimated from the data itself with Nadaraya–Watson kernel regression
// (internal/kernel); computes the adversary's posterior belief over an
// anonymized release with exact permanent-based Bayesian inference and
// the linear-time Ω-estimate (internal/inference); quantifies
// disclosure with a kernel-smoothed Jensen–Shannon divergence
// satisfying five desiderata (internal/distance); and enforces the
// (B,t)- and skyline (B,t)-privacy models inside a Mondrian anonymizer
// (internal/privacy, internal/mondrian), with utility measures and a
// full experiment harness regenerating every figure of the paper's
// evaluation (internal/experiments).
//
// The pipeline's hot paths — breach testing and attacks over
// equivalence classes, kernel prior estimation over QI profiles,
// Mondrian subtree descent, and the independent parameter points of
// each experiment — run on a bounded worker pool with deterministic
// ordered fan-in (internal/parallel). Output is bit-identical at any
// pool size; configure it with the -workers flag on the cmd binaries
// (0 = all cores, negative = sequential) or with core.WithWorkers,
// where any n ≤ 0 requests the sequential path outright.
//
// The schema registry (internal/schema) makes the system
// multi-scenario: a dataset is a declarative, JSON-loadable spec —
// attributes with categorical domains or numeric ranges, per-attribute
// generalization hierarchies as nested label trees, one sensitive
// attribute, and an optional conditional synthesis model with weighted
// QI→sensitive dependencies and hard negative-association constraints
// (the paper's §I example). Specs are content-addressed, synthesis is
// deterministic given (spec, n, seed), and the built-in Adult dataset
// (internal/adult) is itself a registered spec; example specs live
// under examples/schemas/.
//
// The serving layer (internal/service, cmd/serve) exposes the whole
// pipeline as a long-running HTTP/JSON API: schemas register over
// POST /v1/schemas, datasets keep their engine warm across requests,
// releases live in a content-addressed store with LRU eviction and
// singleflight dedup of concurrent identical requests, slow
// anonymizations run as async jobs on a bounded worker pool (202 +
// GET /v1/jobs/{id}), and cmd/loadgen measures the resulting
// throughput with a closed-loop mixed-scenario (and multi-schema)
// load generator. With -data-dir the stores gain a write-through
// durable tier: a restarted server recovers schemas, datasets, and
// releases from content-addressed files byte-identically, without
// rerunning the pipeline.
//
// Start with examples/quickstart or README.md, or see DESIGN.md for
// the system inventory, the concurrency model, the schema registry,
// the service layer, and the index mapping each benchmark to its
// paper figure.
package repro
