// Package trace generates, records and replays user interaction traces.
//
// The original study records >100 real interaction traces with a
// record-and-replay tool and replays each one under every scheduler. That
// data is not available, so this package provides the closest synthetic
// equivalent: a stochastic user-behaviour model parameterized per
// application (think times, scroll runs, burstiness, navigation and menu
// habits, and an intrinsic noise term) that produces traces with the same
// statistics the paper reports — roughly 110-second sessions with a few
// dozen events covering the three primitive interactions (load, tap, move),
// including different DOM-level manifestations of the same interaction.
//
// Traces are plain data (JSON-serializable) and are the single source of
// truth replayed identically under every scheduler, so scheduler comparisons
// are paired exactly as in the paper.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/acmp"
	"repro/internal/dom"
	"repro/internal/simtime"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// Event is the serialized form of one trace entry.
type Event struct {
	Seq        int     `json:"seq"`
	Type       string  `json:"type"`
	TriggerUS  int64   `json:"trigger_us"`
	Target     int     `json:"target"`
	TargetKind int     `json:"target_kind"`
	TmemUS     int64   `json:"tmem_us"`
	Cycles     int64   `json:"cycles"`
	ViewportY  float64 `json:"viewport_y"`
	Navigation bool    `json:"navigation"`
}

// Trace is one recorded interaction session with one application.
type Trace struct {
	App     string  `json:"app"`
	Seed    int64   `json:"seed"`
	DOMSeed int64   `json:"dom_seed"`
	Purpose string  `json:"purpose"` // "train" or "eval"
	Events  []Event `json:"events"`
}

// Purposes for generated corpora.
const (
	PurposeTrain = "train"
	PurposeEval  = "eval"
)

// Count returns the number of events in the trace.
func (t *Trace) Count() int { return len(t.Events) }

// Duration returns the span from the first to the last event trigger.
func (t *Trace) Duration() simtime.Duration {
	if len(t.Events) == 0 {
		return 0
	}
	return simtime.Duration(t.Events[len(t.Events)-1].TriggerUS - t.Events[0].TriggerUS)
}

// Runtime converts the trace into runtime event instances ready to be fed to
// a scheduler simulation.
func (t *Trace) Runtime() ([]*webevent.Event, error) {
	out := make([]*webevent.Event, 0, len(t.Events))
	for _, e := range t.Events {
		typ, err := webevent.ParseType(e.Type)
		if err != nil {
			return nil, fmt.Errorf("trace %s/%d: %w", t.App, t.Seed, err)
		}
		out = append(out, &webevent.Event{
			Seq:        e.Seq,
			App:        t.App,
			Type:       typ,
			Trigger:    simtime.Time(e.TriggerUS),
			Target:     e.Target,
			TargetKind: webevent.NodeKind(e.TargetKind),
			Work: acmp.Workload{
				Tmem:   simtime.Duration(e.TmemUS),
				Cycles: e.Cycles,
			},
			ViewportY:  e.ViewportY,
			Navigation: e.Navigation,
		})
	}
	return out, nil
}

// Session reconstructs the DOM session that produced this trace; replaying
// the trace's events through it reproduces the exact DOM states the user
// saw (used by the predictor's feature extraction).
func (t *Trace) Session() (*webapp.Session, error) {
	spec, err := webapp.ByName(t.App)
	if err != nil {
		return nil, err
	}
	return webapp.NewSession(spec, t.DOMSeed), nil
}

// Options controls trace generation.
type Options struct {
	// TargetDuration is the intended session length (default 110 s).
	TargetDuration simtime.Duration
	// MinEvents and MaxEvents bound the number of events (defaults 12, 70).
	MinEvents, MaxEvents int
}

func (o Options) withDefaults() Options {
	if o.TargetDuration == 0 {
		o.TargetDuration = 110 * simtime.Second
	}
	if o.MinEvents == 0 {
		o.MinEvents = 12
	}
	if o.MaxEvents == 0 {
		o.MaxEvents = 70
	}
	return o
}

// Generate produces one synthetic interaction trace for the application
// using the given seed. The same (application, seed, options) triple always
// yields the same trace.
func Generate(spec *webapp.Spec, seed int64, opts Options) *Trace {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	domSeed := seed*31 + 7
	sess := webapp.NewSession(spec, domSeed)
	b := spec.Behavior

	tr := &Trace{App: spec.Name, Seed: seed, DOMSeed: domSeed, Purpose: PurposeEval}

	now := simtime.Time(0).Add(simtime.FromMillis(150 + 100*rng.Float64()))
	g := &generator{rng: rng, spec: spec, sess: sess, trace: tr}

	// The session always starts with the home page load.
	g.emit(webevent.Load, dom.None, now, false)
	g.lastWasLoad = true

	for len(tr.Events) < opts.MaxEvents {
		if simtime.Duration(now) >= opts.TargetDuration && len(tr.Events) >= opts.MinEvents {
			break
		}
		typ, target, gap, nav := g.next(b)
		now = now.Add(gap)
		g.emit(typ, target, now, nav)
	}
	return tr
}

// generator holds the mutable state of one trace-generation run.
type generator struct {
	rng   *rand.Rand
	spec  *webapp.Spec
	sess  *webapp.Session
	trace *Trace

	scrollRemaining int
	lastWasLoad     bool
	lastWasNavTap   bool
	openedMenu      dom.NodeID // menu expanded by the previous tap, if any
	lastGapWasBurst bool
}

// emit appends one event to the trace and applies it to the DOM session.
func (g *generator) emit(typ webevent.Type, target dom.NodeID, at simtime.Time, navigation bool) {
	kind := dom.Document
	if target != dom.None {
		kind = g.sess.Tree().Node(target).Kind
	}
	work := g.spec.SampleWorkload(typ, kind, g.rng)
	g.trace.Events = append(g.trace.Events, Event{
		Seq:        len(g.trace.Events),
		Type:       typ.String(),
		TriggerUS:  at.Micros(),
		Target:     int(target),
		TargetKind: int(kind),
		TmemUS:     work.Tmem.Micros(),
		Cycles:     work.Cycles,
		ViewportY:  g.sess.Tree().ViewportCenterY(),
		Navigation: navigation,
	})
	mut := g.sess.Apply(typ, target)
	g.lastWasLoad = typ == webevent.Load
	g.lastWasNavTap = navigation
	if mut.Kind == dom.MenuToggled && !g.sess.Tree().Node(mut.Menu).Hidden {
		g.openedMenu = mut.Menu
	} else if typ != webevent.Load {
		g.openedMenu = dom.None
	}
}

// next decides the next user action: its event type, target node, the gap
// since the previous event, and whether it is a navigation tap.
func (g *generator) next(b webapp.Behavior) (webevent.Type, dom.NodeID, simtime.Duration, bool) {
	tree := g.sess.Tree()

	// A navigation tap is always followed by the resulting page load after a
	// short request-dispatch delay.
	if g.sess.PendingNavigation() != "" {
		gap := simtime.FromMillis(80 + 180*g.rng.Float64())
		return webevent.Load, dom.None, gap, false
	}

	intentMove, intentTap := g.decideIntent(b, tree)

	// Noise: the user deviates from the predictable intent.
	if g.rng.Float64() < b.Noise {
		intentMove = tree.Scrollable() && !tree.AtBottom() && g.rng.Float64() < 0.5
		intentTap = !intentMove
		g.scrollRemaining = 0
	}

	if intentMove {
		gap := g.moveGap(b)
		return b.MoveManifestation, dom.None, gap, false
	}
	_ = intentTap
	return g.tapAction(b, tree)
}

// decideIntent implements the predictable part of the behaviour model.
func (g *generator) decideIntent(b webapp.Behavior, tree *dom.Tree) (move, tap bool) {
	canScroll := tree.Scrollable() && !tree.AtBottom()
	switch {
	case g.scrollRemaining > 0 && canScroll:
		g.scrollRemaining--
		return true, false
	case g.lastWasLoad && canScroll && g.rng.Float64() < b.AfterLoadScrollProb:
		g.startRun(b, tree)
		return true, false
	case g.openedMenu != dom.None && g.rng.Float64() < b.MenuFollowProb:
		return false, true
	case canScroll && g.rng.Float64() < b.ScrollAffinity:
		g.startRun(b, tree)
		return true, false
	default:
		return false, true
	}
}

// startRun begins a new run of consecutive scrolls. Most runs sweep to the
// bottom of the page (the user scans the whole page); the rest stop after a
// geometrically distributed number of steps.
func (g *generator) startRun(b webapp.Behavior, tree *dom.Tree) {
	if g.rng.Float64() < 0.75 {
		step := tree.ViewportHeight * dom.ScrollStepFraction
		remaining := tree.PageHeight - tree.ViewportHeight - tree.ViewportTop
		n := int(remaining/step) + 1
		if n < 1 {
			n = 1
		}
		g.scrollRemaining = n - 1
		return
	}
	cont := 1 - 1/b.ScrollRunMean
	if cont < 0 {
		cont = 0
	}
	length := 1
	for length < 20 && g.rng.Float64() < cont {
		length++
	}
	g.scrollRemaining = length - 1
}

// moveGap returns the inter-arrival gap for a move event. The first move
// after a load frequently arrives while the load is still rendering — the
// "impatient scroll" that produces event interference.
func (g *generator) moveGap(b webapp.Behavior) simtime.Duration {
	if g.lastWasLoad {
		if g.rng.Float64() < 0.18 {
			// The impatient case: the user starts scrolling while the page
			// is still rendering, producing event interference.
			return simtime.FromMillis(2400 + 2200*g.rng.Float64())
		}
		return g.thinkGap(b)
	}
	if g.scrollRemaining > 0 || !g.lastGapWasBurst {
		return simtime.FromMillis(b.ScrollGapMs * (0.6 + 0.8*g.rng.Float64()))
	}
	return simtime.FromMillis(b.ScrollGapMs * (0.6 + 0.8*g.rng.Float64()))
}

// thinkGap returns a deliberate-action gap: either a burst right after the
// previous event or a longer reading/thinking pause.
func (g *generator) thinkGap(b webapp.Behavior) simtime.Duration {
	if g.rng.Float64() < b.BurstProb {
		g.lastGapWasBurst = true
		return simtime.FromMillis(b.BurstGapMs * (0.5 + g.rng.Float64()))
	}
	g.lastGapWasBurst = false
	jitter := 1 + b.ThinkJitter*(2*g.rng.Float64()-1)
	return simtime.FromMillis(b.ThinkMeanMs * jitter)
}

// tapAction chooses what the user taps and returns the resulting event.
func (g *generator) tapAction(b webapp.Behavior, tree *dom.Tree) (webevent.Type, dom.NodeID, simtime.Duration, bool) {
	gap := g.thinkGap(b)
	if g.openedMenu != dom.None {
		// Menu follow-ups come quickly: the user opened the menu to use it.
		gap = simtime.FromMillis(600 + 900*g.rng.Float64())
		if item := g.visibleMenuItem(tree, g.openedMenu); item != dom.None {
			n := tree.Node(item)
			return b.TapManifestation, item, gap, n.NavigatesTo != ""
		}
	}

	// Form submission.
	if b.FormProb > 0 && g.rng.Float64() < b.FormProb {
		if form := g.visibleOfKind(tree, dom.Form); form != dom.None {
			return webevent.Submit, form, gap, false
		}
	}

	// Menu toggle.
	if g.rng.Float64() < b.MenuProb {
		if toggle := g.visibleToggle(tree); toggle != dom.None {
			return b.TapManifestation, toggle, gap, false
		}
	}

	// Navigation vs plain tap.
	wantNav := g.rng.Float64() < b.NavProb
	candidates := tree.VisibleTappable()
	var navs, plains []dom.NodeID
	for _, id := range candidates {
		n := tree.Node(id)
		if n.TogglesMenu != dom.None {
			continue
		}
		if n.NavigatesTo != "" {
			navs = append(navs, id)
		} else {
			plains = append(plains, id)
		}
	}
	pick := func(ids []dom.NodeID) dom.NodeID {
		if len(ids) == 0 {
			return dom.None
		}
		return ids[g.rng.Intn(len(ids))]
	}
	var target dom.NodeID
	if wantNav {
		target = pick(navs)
	}
	if target == dom.None {
		target = pick(plains)
	}
	if target == dom.None {
		target = pick(candidates)
	}
	if target == dom.None {
		// Degenerate page: fall back to a scroll if possible, else re-tap the
		// document root as a no-op tap.
		if tree.Scrollable() {
			return b.MoveManifestation, dom.None, gap, false
		}
		return b.TapManifestation, dom.None, gap, false
	}
	n := tree.Node(target)
	return b.TapManifestation, target, gap, n.NavigatesTo != "" && n.TogglesMenu == dom.None
}

func (g *generator) visibleMenuItem(tree *dom.Tree, menu dom.NodeID) dom.NodeID {
	var items []dom.NodeID
	for _, id := range tree.VisibleTappable() {
		if tree.Node(id).Parent == menu {
			items = append(items, id)
		}
	}
	if len(items) == 0 {
		return dom.None
	}
	return items[g.rng.Intn(len(items))]
}

func (g *generator) visibleToggle(tree *dom.Tree) dom.NodeID {
	var toggles []dom.NodeID
	for _, id := range tree.VisibleTappable() {
		if tree.Node(id).TogglesMenu != dom.None {
			toggles = append(toggles, id)
		}
	}
	if len(toggles) == 0 {
		return dom.None
	}
	return toggles[g.rng.Intn(len(toggles))]
}

func (g *generator) visibleOfKind(tree *dom.Tree, kind dom.Kind) dom.NodeID {
	for _, id := range tree.VisibleNodes() {
		if tree.Node(id).Kind == kind {
			return id
		}
	}
	return dom.None
}

// Corpus is a set of traces with helpers for experiment plumbing.
type Corpus []*Trace

// CorpusSeed derives the trace seed of one (application index, user) slot of
// a corpus from its base seed. It is exported so that the shared artifact
// cache can enumerate a corpus's traces without regenerating them.
func CorpusSeed(baseSeed int64, appIndex, user int) int64 {
	return baseSeed + int64(appIndex)*1000 + int64(user)*17 + 1
}

// GenerateCorpus builds tracesPerApp traces for every application in apps.
// Seeds are derived from baseSeed so that train and eval corpora, and
// different "users", never share a random stream.
func GenerateCorpus(apps []*webapp.Spec, tracesPerApp int, baseSeed int64, purpose string, opts Options) Corpus {
	var out Corpus
	for ai, spec := range apps {
		for u := 0; u < tracesPerApp; u++ {
			tr := Generate(spec, CorpusSeed(baseSeed, ai, u), opts)
			tr.Purpose = purpose
			out = append(out, tr)
		}
	}
	return out
}

// TotalEvents returns the number of events across the corpus.
func (c Corpus) TotalEvents() int {
	n := 0
	for _, t := range c {
		n += t.Count()
	}
	return n
}

// Encode writes the corpus as a JSON stream (one trace per line).
func Encode(w io.Writer, c Corpus) error {
	enc := json.NewEncoder(w)
	for _, t := range c {
		if err := enc.Encode(t); err != nil {
			return fmt.Errorf("trace: encode: %w", err)
		}
	}
	return nil
}

// Decode reads a corpus previously written by Encode.
func Decode(r io.Reader) (Corpus, error) {
	dec := json.NewDecoder(r)
	var out Corpus
	for {
		var t Trace
		if err := dec.Decode(&t); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode: %w", err)
		}
		out = append(out, &t)
	}
	return out, nil
}
