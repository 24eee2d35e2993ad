package batch

import (
	"reflect"
	"testing"

	"repro/internal/artifacts"
	"repro/internal/engine"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// TestPersistentKeysGolden pins the exact bytes of the persistent store keys
// for one session result, one trace and one trained learner. A store
// directory written by an earlier build stays warm only while these keys are
// unchanged, so any edit to how a memo key is rendered must show up here.
func TestPersistentKeysGolden(t *testing.T) {
	ps := openStore(t, t.TempDir())

	r := NewRunner(1).WithStore(ps)
	res := &engine.Result{App: "cnn"}
	key := Key{Platform: "Exynos5410", App: "cnn", TraceSeed: -7, Scheduler: "PES", Predictor: "seq", Variant: "0123456789abcdef"}
	if _, err := r.Run([]Session{{Key: key, Run: func() (*engine.Result, error) { return res, nil }}}); err != nil {
		t.Fatal(err)
	}

	arts := artifacts.NewStore().WithPersistent(ps)
	spec, err := webapp.ByName("ebay")
	if err != nil {
		t.Fatal(err)
	}
	arts.Trace(spec, 42, trace.PurposeEval, trace.Options{TargetDuration: 30 * simtime.Second, MaxEvents: 25})
	if _, _, err := arts.Learner(artifacts.LearnerKey{TracesPerApp: 1, CorpusSeed: 5, TrainSeed: 3}); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"learner|tpa=1|corpus=5|train=3",
		"result|Exynos5410|cnn|-7|PES|seq|0123456789abcdef",
		"trace|ebay|42|eval|{TargetDuration:30s MinEvents:0 MaxEvents:25}",
	}
	var got []string
	for _, prefix := range []string{"learner|", "result|", "trace|ebay|42|eval|"} {
		got = append(got, ps.Keys(prefix)...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("persistent keys changed:\n got %q\nwant %q", got, want)
	}
}
