package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/adult"
	"repro/internal/anonymize"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/service"
)

// reference is the benchmark's in-process oracle for one table: an
// engine built from the same CSV the server received, whose releases
// and attacks the served responses must match exactly (the engine is
// bit-identical at any worker count, so equality is exact).
type reference struct {
	table *dataset.Table
	eng   *core.Engine
}

func newReference(csv []byte, opts ...core.Option) (*reference, error) {
	t, err := decodeTable(csv)
	if err != nil {
		return nil, fmt.Errorf("reference: decoding table: %w", err)
	}
	eng, err := core.New(t, adult.Hierarchies(), nil, nil, opts...)
	if err != nil {
		return nil, fmt.Errorf("reference: building engine: %w", err)
	}
	return &reference{table: t, eng: eng}, nil
}

// release runs the Mondrian pipeline the service runs for (model, p).
func (r *reference) release(model string, p core.Params) (*anonymize.Result, error) {
	res, _, err := r.eng.RunAlgorithm("mondrian", model, p)
	if err != nil {
		return nil, fmt.Errorf("reference: anonymizing %s: %w", model, err)
	}
	return res, nil
}

// attacks evaluates a release at every bandwidth of grid under the
// release's own breach criterion, as the service's attack and risk
// endpoints do.
func (r *reference) attacks(res *anonymize.Result, model string, p core.Params, grid []float64) ([]*core.AttackReport, error) {
	m, ok := core.ParseModel(model)
	if !ok {
		m = core.BTPrivacy
	}
	d := r.table.Schema.D()
	bvecs := make([][]float64, len(grid))
	for i, bp := range grid {
		bvecs[i] = kernel.UniformBandwidth(d, bp)
	}
	reps, err := r.eng.AttackSweepWith(context.Background(), nil, res, bvecs, p.T, r.eng.BreachTest(m, p))
	if err != nil {
		return nil, fmt.Errorf("reference: attacking: %w", err)
	}
	return reps, nil
}

// checkAnonymize matches an anonymize reply against the reference
// release and returns the release id and whether the reply says it was
// served from the store.
func checkAnonymize(rp reply, groups, records int) (string, bool, error) {
	if !rp.ok() {
		return "", false, fmt.Errorf("anonymize: status %d", rp.status)
	}
	got, err := decode[service.AnonymizeResponse](rp)
	if err != nil {
		return "", false, err
	}
	if got.Groups != groups || got.Records != records || got.Release == "" {
		return "", false, fmt.Errorf("anonymize: got groups=%d records=%d, want %d/%d: %w",
			got.Groups, got.Records, groups, records, errMismatch)
	}
	return got.Release, got.Cached, nil
}

// checkAttack matches a single-bandwidth attack reply.
func checkAttack(rp reply, rel string, bp float64, rep *core.AttackReport) error {
	if !rp.ok() {
		return fmt.Errorf("attack: status %d", rp.status)
	}
	got, err := decode[service.AttackResponse](rp)
	if err != nil {
		return err
	}
	if got.Release != rel || got.BPrime != bp || got.Records != len(rep.Risks) ||
		got.Vulnerable != rep.Vulnerable || got.WorstRisk != rep.WorstRisk {
		return fmt.Errorf("attack b'=%g: got records=%d vulnerable=%d worst=%v, want %d/%d/%v: %w",
			bp, got.Records, got.Vulnerable, got.WorstRisk, len(rep.Risks), rep.Vulnerable, rep.WorstRisk, errMismatch)
	}
	return nil
}

// checkRisk matches a single-bandwidth risk reply.
func checkRisk(rp reply, rel string, bp float64, rep *core.AttackReport) error {
	if !rp.ok() {
		return fmt.Errorf("risk: status %d", rp.status)
	}
	got, err := decode[service.RiskResponse](rp)
	if err != nil {
		return err
	}
	if got.Release != rel || got.BPrime != bp || got.WorstRisk != rep.WorstRisk {
		return fmt.Errorf("risk b'=%g: got worst=%v, want %v: %w", bp, got.WorstRisk, rep.WorstRisk, errMismatch)
	}
	return nil
}

// checkRiskSweep matches a risk sweep reply point by point.
func checkRiskSweep(rp reply, rel string, grid []float64, reps []*core.AttackReport) error {
	if !rp.ok() {
		return fmt.Errorf("risk sweep: status %d", rp.status)
	}
	got, err := decode[service.RiskSweepResponse](rp)
	if err != nil {
		return err
	}
	if got.Release != rel || len(got.Sweep) != len(grid) {
		return fmt.Errorf("risk sweep: got %d points for %q: %w", len(got.Sweep), got.Release, errMismatch)
	}
	for i, pt := range got.Sweep {
		if pt.BPrime != grid[i] || pt.WorstRisk != reps[i].WorstRisk {
			return fmt.Errorf("risk sweep b'=%g: got worst=%v, want %v: %w", grid[i], pt.WorstRisk, reps[i].WorstRisk, errMismatch)
		}
	}
	return nil
}

// releaseConfig is one warm release: a privacy model and its
// parameters.
type releaseConfig struct {
	model string
	p     core.Params
}

// warmConfigs are the warm releases of warm_reads and mixed:
// {distinct, bt} × the paper's first two parameter sets, the releases
// loadgen warms.
func warmConfigs() []releaseConfig {
	var out []releaseConfig
	for _, m := range []string{"distinct", "bt"} {
		for _, p := range core.Table5()[:2] {
			out = append(out, releaseConfig{model: m, p: p})
		}
	}
	return out
}

// warmRelease holds one release's request bodies and the exact
// response bytes every later warm read must reproduce.
type warmRelease struct {
	cfg releaseConfig
	// table indexes the set's tables.
	table    int
	id       string
	anonReq  []byte
	hit      []byte
	single   [][]byte // attack/risk request per grid point
	attack   [][]byte
	risk     [][]byte
	sweepReq []byte
	sweep    []byte
	// built is the anonymize reply that computed the release.
	built reply
}

// warmSet is a set of datasets with warm releases whose every prior on
// grid is cached server-side and whose responses are verified.
type warmSet struct {
	grid []float64
	csvs [][]byte
	rels []*warmRelease
}

// buildWarmSet uploads every table of csvs, builds one release per
// config on each, and runs every release once over grid (sweep, then
// each single bandwidth on both endpoints, then an anonymize hit),
// recording the bodies later reads are compared against. This is
// set-up work: after it, every read of the set is a release-store hit
// on cached priors.
func buildWarmSet(s *server, csvs [][]byte, cfgs []releaseConfig, grid []float64) (*warmSet, error) {
	ws := &warmSet{grid: grid, csvs: csvs}
	for t, csv := range csvs {
		up, err := s.call("uploading table", "POST", "/v1/datasets", "text/csv", csv)
		if err != nil {
			return nil, err
		}
		ds, err := decode[service.DatasetResponse](up)
		if err != nil {
			return nil, err
		}
		for _, c := range cfgs {
			wr := &warmRelease{cfg: c, table: t, anonReq: anonymizeBody(ds.ID, c.model, c.p)}
			if wr.built, err = s.call("building release", "POST", "/v1/anonymize", "application/json", wr.anonReq); err != nil {
				return nil, err
			}
			a, err := decode[service.AnonymizeResponse](wr.built)
			if err != nil {
				return nil, err
			}
			wr.id = a.Release
			ws.rels = append(ws.rels, wr)
		}
	}
	for _, wr := range ws.rels {
		wr.sweepReq = sweepBody(wr.id, grid)
		r, err := s.call("warming priors", "POST", "/v1/risk", "application/json", wr.sweepReq)
		if err != nil {
			return nil, err
		}
		wr.sweep = r.body
		for _, bp := range grid {
			body := singleBody(wr.id, bp)
			ar, err := s.call("warm attack", "POST", "/v1/attack", "application/json", body)
			if err != nil {
				return nil, err
			}
			rr, err := s.call("warm risk", "POST", "/v1/risk", "application/json", body)
			if err != nil {
				return nil, err
			}
			wr.single = append(wr.single, body)
			wr.attack, wr.risk = append(wr.attack, ar.body), append(wr.risk, rr.body)
		}
		h, err := s.call("anonymize hit", "POST", "/v1/anonymize", "application/json", wr.anonReq)
		if err != nil {
			return nil, err
		}
		wr.hit = h.body
	}
	return ws, nil
}

// verify checks every recorded body of the set against refs, the
// reference of each of the set's tables in order. After it passes,
// byte equality with the recorded bodies is equivalent to matching the
// reference.
func (ws *warmSet) verify(refs []*reference) error {
	for _, wr := range ws.rels {
		ref := refs[wr.table]
		res, err := ref.release(wr.cfg.model, wr.cfg.p)
		if err != nil {
			return err
		}
		n := ref.table.N()
		if _, _, err := checkAnonymize(wr.built, len(res.Groups), n); err != nil {
			return err
		}
		id, cached, err := checkAnonymize(reply{status: 200, body: wr.hit}, len(res.Groups), n)
		if err != nil {
			return err
		}
		if id != wr.id || !cached {
			return fmt.Errorf("anonymize hit names %s (cached=%v), want %s from the store: %w", id, cached, wr.id, errMismatch)
		}
		reps, err := ref.attacks(res, wr.cfg.model, wr.cfg.p, ws.grid)
		if err != nil {
			return err
		}
		if err := checkRiskSweep(reply{status: 200, body: wr.sweep}, wr.id, ws.grid, reps); err != nil {
			return err
		}
		for i, bp := range ws.grid {
			if err := checkAttack(reply{status: 200, body: wr.attack[i]}, wr.id, bp, reps[i]); err != nil {
				return err
			}
			if err := checkRisk(reply{status: 200, body: wr.risk[i]}, wr.id, bp, reps[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// readKind is one warm read kind of the weighted mix.
type readKind int

const (
	readAnonymizeHit readKind = iota
	readAttack
	readRisk
	readRiskSweep
	numReadKinds
)

var readNames = [numReadKinds]string{"anonymize_hit", "attack", "risk", "risk_sweep"}

// readMix is the warm mix anonymize-hit 1 : attack 4 : risk 2 :
// risk-sweep 1, as one slot per unit of weight.
var readMix = []readKind{
	readAnonymizeHit,
	readAttack, readAttack, readAttack, readAttack,
	readRisk, readRisk,
	readRiskSweep,
}

// mixedReadMix is readMix without the anonymize hit, for reads beside
// onboarding traffic: an anonymize request needs its dataset resident,
// and each onboarding flow adds a dataset to the service's 8-entry
// dataset LRU, so within seconds the warm dataset is evicted and its
// anonymize requests return 404 — although the release itself stays
// resident and attackable.
var mixedReadMix = readMix[1:]

// read sends one warm read and reports whether its body is the
// verified one, byte for byte.
func (ws *warmSet) read(s *server, kind readKind, rel, bi int) (reply, bool) {
	wr := ws.rels[rel]
	var path string
	var req, want []byte
	switch kind {
	case readAnonymizeHit:
		path, req, want = "/v1/anonymize", wr.anonReq, wr.hit
	case readAttack:
		path, req, want = "/v1/attack", wr.single[bi], wr.attack[bi]
	case readRisk:
		path, req, want = "/v1/risk", wr.single[bi], wr.risk[bi]
	default:
		path, req, want = "/v1/risk", wr.sweepReq, wr.sweep
	}
	r, err := s.postJSON(path, req)
	if err != nil {
		return r, false
	}
	return r, r.ok() && bytes.Equal(r.body, want)
}

// flowSteps names the onboarding flow's requests in order.
var flowSteps = [4]string{"ingest", "anonymize_cold", "sweep_cold", "attack_csr"}

// flow is one publisher onboarding: upload a never-seen table, ask for
// a default (B,t)-private release, sweep its risk over a cold grid,
// and attack it once below the CSR crossover.
type flow struct {
	genSeed int64
	// steps holds the replies received, in flowSteps order; a flow
	// stops at its first failed step.
	steps  []reply
	failed bool
	start  time.Time
	took   time.Duration
}

// runFlow drives one onboarding flow for the table of genSeed, whose
// CSV the caller rendered beforehand (input generation is not timed).
// rec, when non-nil, records the flow as a span with one child per
// request.
func runFlow(s *server, genSeed int64, csv []byte, rec *recorder) flow {
	f := flow{genSeed: genSeed, start: time.Now()}
	start := f.start
	f.run(s, csv)
	f.took = time.Since(start)
	if rec != nil {
		parent := rec.add("http.flow", "", 0, start, f.took)
		at := start
		for i, st := range f.steps {
			rec.add("http."+flowSteps[i], st.reqID, parent, at, st.took)
			at = at.Add(st.took)
		}
	}
	return f
}

func (f *flow) run(s *server, csv []byte) {
	up, ok := f.step(s, "/v1/datasets", "text/csv", csv)
	if !ok {
		return
	}
	ds, err := decode[service.DatasetResponse](up)
	if err != nil {
		f.failed = true
		return
	}
	an, ok := f.step(s, "/v1/anonymize", "application/json", anonymizeBody(ds.ID, "bt", defaultParams))
	if !ok {
		return
	}
	rel, err := decode[service.AnonymizeResponse](an)
	if err != nil {
		f.failed = true
		return
	}
	if _, ok := f.step(s, "/v1/risk", "application/json", sweepBody(rel.Release, coldGrid)); !ok {
		return
	}
	f.step(s, "/v1/attack", "application/json", singleBody(rel.Release, csrBPrime))
}

// step sends one request of the flow and records its reply.
func (f *flow) step(s *server, path, contentType string, body []byte) (reply, bool) {
	r, err := s.do("POST", path, contentType, body)
	f.steps = append(f.steps, r)
	if err != nil || !r.ok() {
		f.failed = true
		return r, false
	}
	return r, true
}

// verify recomputes the flow on a reference engine from the same
// table and matches every step's reply. It returns the reference
// engine (also on a mismatch, once built) so callers can reuse it.
func (f *flow) verify() (*reference, error) {
	if f.failed || len(f.steps) != len(flowSteps) {
		return nil, fmt.Errorf("flow for table %d failed at step %d", f.genSeed, len(f.steps))
	}
	csv, err := tableCSV(f.genSeed)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(csv)
	if err != nil {
		return nil, err
	}
	ds, err := decode[service.DatasetResponse](f.steps[0])
	if err != nil {
		return ref, err
	}
	if ds.Records != ref.table.N() {
		return ref, fmt.Errorf("ingest: got %d records, want %d: %w", ds.Records, ref.table.N(), errMismatch)
	}
	res, err := ref.release("bt", defaultParams)
	if err != nil {
		return ref, err
	}
	rel, cached, err := checkAnonymize(f.steps[1], len(res.Groups), ref.table.N())
	if err != nil {
		return ref, err
	}
	if cached {
		return ref, fmt.Errorf("anonymize of a never-seen table was served from the store: %w", errMismatch)
	}
	grid := append(append([]float64(nil), coldGrid...), csrBPrime)
	reps, err := ref.attacks(res, "bt", defaultParams, grid)
	if err != nil {
		return ref, err
	}
	if err := checkRiskSweep(f.steps[2], rel, coldGrid, reps[:len(coldGrid)]); err != nil {
		return ref, err
	}
	if err := checkAttack(f.steps[3], rel, csrBPrime, reps[len(coldGrid)]); err != nil {
		return ref, err
	}
	return ref, nil
}
