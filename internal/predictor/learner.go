package predictor

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/mlr"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/webevent"
)

// SequenceLearner is the statistical half of the event predictor: a
// one-vs-rest logistic regression model over the Table 1 features whose
// classes are the DOM-level event types.
type SequenceLearner struct {
	model *mlr.Model
}

// NewSequenceLearner creates an untrained learner.
func NewSequenceLearner() *SequenceLearner {
	return &SequenceLearner{model: mlr.NewModel(NumFeatures, webevent.NumTypes)}
}

// LearnerFromModel wraps an already-trained model (e.g. loaded from disk).
func LearnerFromModel(m *mlr.Model) (*SequenceLearner, error) {
	if m.NumFeatures != NumFeatures || m.NumClasses != webevent.NumTypes {
		return nil, fmt.Errorf("predictor: model shape %dx%d does not match %dx%d",
			m.NumFeatures, m.NumClasses, NumFeatures, webevent.NumTypes)
	}
	return &SequenceLearner{model: m}, nil
}

// Model exposes the underlying logistic model (for persistence).
func (l *SequenceLearner) Model() *mlr.Model { return l.model }

// TrainingSamples replays every trace of the corpus through its DOM session
// and produces one training sample per event: the Table 1 features computed
// from the state *before* the event, labelled with the event's type. The
// session's first event (the initial load) has no preceding context and is
// skipped.
func TrainingSamples(corpus trace.Corpus) ([]mlr.Sample, error) {
	var samples []mlr.Sample
	for _, tr := range corpus {
		evs, err := tr.Runtime()
		if err != nil {
			return nil, err
		}
		sess, err := tr.Session()
		if err != nil {
			return nil, err
		}
		var win Window
		for i, e := range evs {
			if i > 0 {
				samples = append(samples, mlr.Sample{
					Features: Features(sess.Tree(), &win),
					Label:    int(e.Type),
				})
			}
			win.Observe(e.Type, sess.Tree().ViewportCenterY(), e.Trigger)
			sess.ApplyEvent(e)
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("predictor: corpus produced no training samples")
	}
	return samples, nil
}

// Train fits the learner on the corpus. Training is deterministic and cheap
// (the paper reports ~3 s on a desktop CPU; this synthetic corpus trains in
// well under a second).
func (l *SequenceLearner) Train(corpus trace.Corpus, cfg mlr.TrainConfig) error {
	samples, err := TrainingSamples(corpus)
	if err != nil {
		return err
	}
	return l.model.Fit(samples, cfg)
}

// predictScratch holds the reusable buffers of allocation-free learner
// prediction. Each Predictor owns one (the trained learner itself is shared
// read-only across concurrent sessions, so the scratch state cannot live on
// it).
type predictScratch struct {
	probs   []float64
	allowed []int
}

// predictWith is the allocation-free prediction path: the class-restriction
// indices and the probability vector live in the caller's scratch buffers.
func (l *SequenceLearner) predictWith(s *predictScratch, features []float64, allowed []webevent.Type) (webevent.Type, float64, error) {
	s.allowed = s.allowed[:0]
	for _, t := range allowed {
		s.allowed = append(s.allowed, int(t))
	}
	class, conf, probs, err := l.model.PredictRestrictedBuf(s.probs, features, s.allowed)
	if probs != nil {
		s.probs = probs
	}
	if err != nil {
		return 0, 0, err
	}
	return webevent.Type(class), conf, nil
}

// Predicted is one entry of a predicted event sequence.
type Predicted struct {
	// Type is the predicted DOM-level event type.
	Type webevent.Type
	// Target is the hypothetical target node used for speculative execution
	// (None for loads and moves).
	Target dom.NodeID
	// TargetKind is the kind of the hypothetical target.
	TargetKind dom.Kind
	// Confidence is the individual confidence of this prediction.
	Confidence float64
	// Cumulative is the product of confidences up to and including this
	// prediction (the quantity compared against the confidence threshold).
	Cumulative float64
	// ExpectedGap is the predicted inter-arrival gap between the previous
	// event's trigger and this event's trigger. The sequence learner only
	// predicts types, not times; the gap is a running estimate from the
	// current session used by the optimizer to place speculative deadlines.
	ExpectedGap simtime.Duration
	// FromDOMHint marks predictions produced by program analysis rather than
	// the statistical learner.
	FromDOMHint bool
}
