package core

import (
	"errors"
	"fmt"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/obs"
	"taurus/internal/sched"
)

// Model is one installed model, complete and immutable: the compiled tape
// (planned, emitted and verified once, whatever the shard count, and holding
// the install's one structural copy of the graph), one image of the weights,
// an arena per shard for the tape to run in, and the placed design's timing.
// Install and WithWeights build from a graph, and both run graphcheck first
// (Rollback reuses an image WithWeights built): a Model exists only for a
// graph that verified against its grid. Its owner — a Pipeline, or a bare
// Device — publishes it by pointer: an install builds a whole new Model, a
// weight push or a rollback one that shares everything but the image, and a
// packet is served by whichever Model its batch was handed, never by parts of
// two. The epoch counts publishes on one owner, 1 for its first install.
//
// A Model keeps nothing of the graphs it was built from: Install clones the
// structure it retains, images copy weights out, so callers may reuse or
// mutate a graph once LoadModel / UpdateWeights has returned.
type Model struct {
	epoch  uint64
	tape   *sched.Tape
	image  *sched.Image
	undo   *sched.Image // the image the push that built m replaced; nil after an install or a rollback
	arenas []*sched.Arena
	inQ    fixed.Quantizer
	tracer *obs.Tracer
	grid   cgra.GridSpec // Install verified against it; WithWeights verifies pushes on it

	// The placed design's pipeline latency (CGRA timing model) and the
	// tape's scheduled II.
	latNs   float64
	schedII int
}

// noModel is what the accessors of a nil *Model — nothing installed — read.
var noModel Model

func (m *Model) orNone() *Model {
	if m == nil {
		return &noModel
	}
	return m
}

// Install builds the model that follows prev (nil for a first install) on an
// owner configured by cfg: g must pass the static gate (graphcheck: no
// feasible Fix32 saturation, fits the grid; ErrBadGraph otherwise), is
// shape-checked, placed on the grid (compiler.Compile), compiled once to a
// tape that must clear the tape gate (admit), and given an arena per shard. A
// graph the scheduler refuses (a LUT model on a grid with no MUs) or a tape
// the verifier rejects is an error — there is no second engine to serve it —
// and either verdict is journalled on cfg's tracer. Nothing is published
// here: on error the caller keeps serving prev.
func Install(cfg Config, prev *Model, g *mr.Graph, inQ fixed.Quantizer, opts compiler.Options, shards int) (*Model, error) {
	if opts.Grid == (cgra.GridSpec{}) {
		opts.Grid = cfg.grid()
	}
	if err := graphcheck.VerifyWith(g, graphcheck.Options{Grid: opts.Grid}).Err(); err != nil {
		return nil, err
	}
	if err := cfg.checkModel(g); err != nil {
		return nil, err
	}
	res, err := compiler.Compile(g.Clone(), opts)
	if err != nil {
		return nil, err
	}
	grid := opts.Grid
	if res.Placement != nil && res.Placement.Spec != (cgra.GridSpec{}) {
		grid = res.Placement.Spec
	}
	m := &Model{
		epoch: prev.Epoch() + 1, inQ: inQ, tracer: cfg.tracer(), grid: opts.Grid,
		latNs: res.Stats.LatencyNs(),
	}
	prog, err := sched.CompileUnverified(res.Graph, grid)
	if err = m.admit(g.Name, prog, err); err != nil {
		return nil, err
	}
	m.arenas = make([]*sched.Arena, shards)
	m.arenas[0] = prog.Arena()
	for i := 1; i < shards; i++ {
		m.arenas[i] = m.tape.NewArena()
	}
	m.tracer.Emitf(0, "model.publish", "epoch=%d kind=install graph=%q", m.epoch, g.Name)
	return m, nil
}

// admit is the install's tape gate: the program CompileUnverified emitted
// for graph name — or err, the scheduler's refusal to emit one — must clear
// one sched.Check before m takes its tape and image. The verdict is
// journalled on m's tracer as tapecheck.pass or tapecheck.fail.
func (m *Model) admit(name string, prog *sched.Program, err error) error {
	if err == nil {
		err = sched.Check(prog)
	}
	if err != nil {
		m.tracer.Emitf(0, "tapecheck.fail", "graph=%q epoch=%d err=%q", name, m.epoch, err.Error())
		return fmt.Errorf("core: compile tape for %q: %w", name, err)
	}
	m.tape, m.image, m.schedII = prog.Tape(), prog.Image(), prog.Schedule().II
	m.tracer.Emitf(0, "tapecheck.pass", "graph=%q epoch=%d ii=%d", name, m.epoch, m.schedII)
	return nil
}

// WithWeights builds the model that serves g's weights on m's tape — the
// out-of-band weight update of §3.3.1/Figure 1: one image copied out of g
// (which is only read), everything else shared with m. A nil m is ErrNoModel.
// g must clear the push gate, graphcheck.CheckPush against the tape's graph
// on the grid m was installed on: a weight-only variant of the installed
// graph (the structural check lives there, once; its refusal satisfies
// errors.Is for ErrStructureMismatch and graphcheck.ErrIncompatible) whose
// payloads and ranges verify (ErrBadGraph otherwise, and first when g is
// both). That gate is the push's only check: the tape admit proved is shared,
// unchanged, and NewImage fixes the rest of what the tape verifier reads —
// the image takes the tape's own dimensions and recomputes its row sums with
// the verifier's formula — so the install's sched.Check still holds for the
// new image (sched's TestImageSums and TestModelFamiliesVerifyClean pin it).
func (m *Model) WithWeights(g *mr.Graph) (*Model, error) {
	if m == nil {
		return nil, ErrNoModel
	}
	if err := graphcheck.CheckPush(m.tape.Graph(), g, graphcheck.Options{Grid: m.grid}); err != nil {
		if errors.Is(err, graphcheck.ErrIncompatible) {
			return nil, fmt.Errorf("%w: %w", ErrStructureMismatch, err)
		}
		return nil, err
	}
	next := *m
	next.epoch, next.image, next.undo = m.epoch+1, m.tape.NewImage(g), m.image
	m.tracer.Emitf(0, "model.publish", "epoch=%d kind=push graph=%q", next.epoch, g.Name)
	return &next, nil
}

// Rollback builds the model that serves again the image m's push replaced,
// under the next epoch, with no gate and no image build: that image cleared
// the gate when it was pushed. It returns nil when m was not built by a push.
func (m *Model) Rollback() *Model {
	if m == nil || m.undo == nil {
		return nil
	}
	next := *m
	next.epoch, next.image, next.undo = m.epoch+1, m.undo, nil
	m.tracer.Emitf(0, "model.publish", "epoch=%d kind=rollback", next.epoch)
	return &next
}

// Epoch is the model's publish count on its owner (0: nothing installed).
func (m *Model) Epoch() uint64 { return m.orNone().epoch }

// InputQuantizer returns the feature quantiser installed with the model (the
// zero Quantizer for none). The control plane needs it to requantise
// retrained weights into the same input domain the preprocessing MATs use.
func (m *Model) InputQuantizer() fixed.Quantizer { return m.orNone().inQ }

// LatencyNs returns the placed design's pipeline latency.
func (m *Model) LatencyNs() float64 { return m.orNone().latNs }

// ScheduledII returns the list schedule's measured initiation interval — the
// II the service model charges per ML packet: Stats.ModelBusyNs,
// pipeline.ServiceModel and the netqueue simulator all derive their
// per-packet service time from it.
func (m *Model) ScheduledII() int { return m.orNone().schedII }
