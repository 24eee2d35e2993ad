package obs

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
)

func TestMintTraceIDDeterministic(t *testing.T) {
	a, b := MintTraceID("c0001"), MintTraceID("c0001")
	if a == "" || a != b {
		t.Fatalf("trace ID not deterministic: %q vs %q", a, b)
	}
	if MintTraceID("c0002") == a {
		t.Fatal("distinct campaigns share a trace ID")
	}
}

func TestRecorderStampsTraceID(t *testing.T) {
	r := NewRecorder("abc123")
	r.Record(Span{Name: "queue_wait", StartUS: 10, DurUS: 5})
	r.Merge([]Span{{TraceID: "other", Name: "simulate", Worker: "w1", StartUS: 20, DurUS: 7}})
	tl := r.Timeline()
	if len(tl) != 2 {
		t.Fatalf("timeline length = %d, want 2", len(tl))
	}
	for _, s := range tl {
		if s.TraceID != "abc123" {
			t.Errorf("span %s trace ID = %q, want abc123", s.Name, s.TraceID)
		}
	}
}

// The timeline must be a pure function of the span *set*: the same spans
// arriving in any order — e.g. live recording vs a rebuild across a journal
// resume — serialize byte-identically.
func TestTimelineByteStableAcrossArrivalOrder(t *testing.T) {
	spans := []Span{
		{Name: "queue_wait", StartUS: 100, DurUS: 40},
		{Name: "dispatch", Worker: "w1", Sessions: 16, StartUS: 140, DurUS: 900},
		{Name: "dispatch", Worker: "w2", Sessions: 16, StartUS: 140, DurUS: 700},
		{Name: "simulate", Worker: "w1", Sessions: 16, StartUS: 150, DurUS: 800, Detail: "chunk 0"},
		{Name: "simulate", Worker: "w2", Sessions: 16, StartUS: 150, DurUS: 600, Detail: "chunk 1"},
		{Name: "steal", Worker: "w2", Sessions: 8, StartUS: 780, DurUS: 3},
		{Name: "solve", Worker: "w1", StartUS: 150, DurUS: 400},
	}
	var want []byte
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]Span(nil), spans...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r := NewRecorder("t1")
		// Interleave Record and Merge arrival paths.
		r.Record(shuffled[0])
		r.Merge(shuffled[1:4])
		for _, s := range shuffled[4:] {
			r.Record(s)
		}
		got, err := json.Marshal(r.Timeline())
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("trial %d: timeline not byte-stable\n got: %s\nwant: %s", trial, got, want)
		}
	}
}

func TestContextPropagation(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("untraced context should yield nil recorder")
	}
	if TraceIDFrom(context.Background()) != "" {
		t.Fatal("untraced context should yield empty trace ID")
	}
	r := NewRecorder("xyz")
	ctx := WithTrace(context.Background(), r)
	if TraceFrom(ctx) != r {
		t.Fatal("recorder not recovered from context")
	}
	if TraceIDFrom(ctx) != "xyz" {
		t.Fatalf("trace ID from context = %q, want xyz", TraceIDFrom(ctx))
	}
	// nil recorder attaches nothing.
	if ctx2 := WithTrace(context.Background(), nil); TraceFrom(ctx2) != nil {
		t.Fatal("nil recorder should not attach")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder("conc")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(Span{Name: "simulate", StartUS: int64(w*1000 + i)})
			}
		}(w)
	}
	wg.Wait()
	if n := len(r.Timeline()); n != 8*200 {
		t.Fatalf("len = %d, want %d", n, 8*200)
	}
}
