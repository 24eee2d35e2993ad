package webapp

import (
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/memo"
	"repro/internal/webevent"
)

// pageKey identifies one deterministically built page tree.
type pageKey struct {
	app  string
	page string
	seed int64
}

// pageCache memoizes built page trees. BuildPage is deterministic in
// (application, page, seed), and a session mutates only node visibility and
// the viewport, so every consumer — the trace generator, the predictor's DOM
// replica, the accuracy evaluation — can start from a cloned master instead
// of rebuilding the page. The cache is process-wide and immutable: masters
// are never handed out directly, only clones.
var (
	pageCache    = memo.New[pageKey, builtPageEntry]()
	pageCacheOff atomic.Bool
)

// SetPageCache enables or disables the shared page-tree cache and reports
// the previous setting. It exists for cold-path benchmarking (cmd/pes-bench)
// and must not be toggled while sessions are being built concurrently.
func SetPageCache(enabled bool) (was bool) {
	return !pageCacheOff.Swap(!enabled)
}

// PageCacheStats returns how many page trees were built and how many session
// page loads were served by cloning a cached master.
func PageCacheStats() (builds, hits int64) {
	st := pageCache.Stats()
	return st.Builds, st.Hits
}

// builtPageEntry pairs a master page tree with its semantic view.
type builtPageEntry struct {
	tree *dom.Tree
	sem  *dom.SemanticTree
}

// builtPage returns a mutable tree for the page plus its semantic view, from
// the cache when enabled. Concurrent first loads of a page share one build.
// The semantic entries are immutable and shared; only their tree binding is
// per-session.
func builtPage(spec *Spec, page string, seed int64) (*dom.Tree, *dom.SemanticTree) {
	if pageCacheOff.Load() {
		t := spec.BuildPage(page, seed)
		return t, dom.BuildSemanticTree(t)
	}
	k := pageKey{app: spec.Name, page: page, seed: seed}
	master, _, _ := pageCache.Get(k, func() (builtPageEntry, error) {
		t := spec.BuildPage(page, seed)
		return builtPageEntry{tree: t, sem: dom.BuildSemanticTree(t)}, nil
	})
	t := master.tree.Clone()
	return t, master.sem.Rebind(t)
}

// Session tracks the DOM state of one user's interaction with an
// application: the current page's DOM tree (and its semantic view), the
// scroll position, expanded menus, and any pending navigation. Both the
// trace generator and the runtime predictor replay events through a Session
// so that they observe exactly the same DOM state for the same event
// history.
type Session struct {
	Spec *Spec
	// DOMSeed parameterizes the deterministic page builder; traces record it
	// so that replay reconstructs identical pages.
	DOMSeed int64

	tree     *dom.Tree
	semantic *dom.SemanticTree
	// pendingPage is the destination of a navigation tap that has not yet
	// been followed by its Load event.
	pendingPage string
	pageVisits  int
}

// NewSession starts a session on the application's home page.
func NewSession(spec *Spec, domSeed int64) *Session {
	s := &Session{Spec: spec, DOMSeed: domSeed}
	s.loadPage("home")
	return s
}

func (s *Session) loadPage(page string) {
	s.tree, s.semantic = builtPage(s.Spec, page, s.DOMSeed)
	s.pageVisits++
}

// Tree returns the current page's DOM tree.
func (s *Session) Tree() *dom.Tree { return s.tree }

// PendingNavigation returns the page a navigation tap has committed to, or
// "" when no navigation is outstanding.
func (s *Session) PendingNavigation() string { return s.pendingPage }

// CurrentPage returns the name of the page the session is on.
func (s *Session) CurrentPage() string { return s.tree.Page }

// Apply updates the DOM state in response to an event of the given type
// delivered to the given node, and returns the resulting mutation. Load
// events swap in the destination page (the pending navigation target, or the
// home page when there is none, e.g. for the session's initial load).
func (s *Session) Apply(typ webevent.Type, target dom.NodeID) dom.Mutation {
	if typ == webevent.Load {
		page := s.pendingPage
		if page == "" {
			page = "home"
		}
		// The very first load of the session lands on the already-built home
		// page; rebuilding it is equivalent and keeps replay deterministic.
		if !(s.pageVisits == 1 && page == "home" && s.tree.ViewportTop == 0) {
			s.loadPage(page)
		}
		s.pendingPage = ""
		return dom.Mutation{Kind: dom.Navigated, Page: page}
	}
	mut := s.tree.ApplyEvent(typ, target)
	if mut.Kind == dom.Navigated {
		s.pendingPage = mut.Page
	}
	return mut
}

// ApplyEvent is a convenience wrapper applying a runtime event.
func (s *Session) ApplyEvent(e *webevent.Event) dom.Mutation {
	return s.Apply(e.Type, dom.NodeID(e.Target))
}
