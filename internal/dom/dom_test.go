package dom

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/webevent"
)

// buildTestPage constructs a small page with:
//   - a scrollable document with scroll listeners,
//   - a visible link that navigates,
//   - a button that toggles an initially hidden menu with two menu items,
//   - a below-the-fold link that is not initially visible.
func buildTestPage() (*Tree, map[string]NodeID) {
	t := NewTree("home", 3000, 1000)
	ids := make(map[string]NodeID)
	root := t.Root()
	t.Node(root).Listeners = []webevent.Type{webevent.Scroll}

	ids["link"] = t.Add(&Node{
		Kind: Link, Parent: root, Y: 100, Height: 50, Area: 0.05,
		Listeners:   []webevent.Type{webevent.Click},
		NavigatesTo: "article",
	})
	menu := t.Add(&Node{Kind: Menu, Parent: root, Y: 300, Height: 200, Area: 0.2, Hidden: true})
	ids["menu"] = menu
	ids["toggle"] = t.Add(&Node{
		Kind: Button, Parent: root, Y: 250, Height: 40, Area: 0.04,
		Listeners:   []webevent.Type{webevent.Click},
		TogglesMenu: menu,
	})
	ids["item1"] = t.Add(&Node{
		Kind: MenuItem, Parent: menu, Y: 310, Height: 40, Area: 0.04,
		Listeners: []webevent.Type{webevent.Click}, NavigatesTo: "section1",
	})
	ids["item2"] = t.Add(&Node{
		Kind: MenuItem, Parent: menu, Y: 360, Height: 40, Area: 0.04,
		Listeners: []webevent.Type{webevent.Click}, NavigatesTo: "section2",
	})
	ids["deep-link"] = t.Add(&Node{
		Kind: Link, Parent: root, Y: 2500, Height: 50, Area: 0.05,
		Listeners:   []webevent.Type{webevent.Click},
		NavigatesTo: "deep",
	})
	ids["form"] = t.Add(&Node{
		Kind: Form, Parent: root, Y: 700, Height: 100, Area: 0.1,
		Listeners: []webevent.Type{webevent.Submit},
	})
	return t, ids
}

func TestTreeBasics(t *testing.T) {
	tree, ids := buildTestPage()
	if tree.Len() != 8 {
		t.Errorf("Len = %d, want 8", tree.Len())
	}
	if tree.Root() == None {
		t.Fatal("no root")
	}
	if tree.Node(ids["link"]).Kind != Link {
		t.Error("node lookup wrong")
	}
	count := 0
	tree.Walk(func(*Node) { count++ })
	if count != 8 {
		t.Errorf("Walk visited %d nodes", count)
	}
}

func TestVisibility(t *testing.T) {
	tree, ids := buildTestPage()
	if !slices.Contains(tree.VisibleNodes(), ids["link"]) {
		t.Error("above-the-fold link should be visible")
	}
	if slices.Contains(tree.VisibleNodes(), ids["deep-link"]) {
		t.Error("below-the-fold link should not be visible")
	}
	if slices.Contains(tree.VisibleNodes(), ids["item1"]) {
		t.Error("item inside a hidden menu should not be visible")
	}
	// Unhide the menu: items become visible.
	tree.Node(ids["menu"]).Hidden = false
	if !slices.Contains(tree.VisibleNodes(), ids["item1"]) {
		t.Error("menu item should be visible after the menu is shown")
	}
	// Scroll to the bottom: deep link becomes visible, top link does not.
	tree.Scroll(2200)
	if !slices.Contains(tree.VisibleNodes(), ids["deep-link"]) {
		t.Error("deep link should be visible after scrolling down")
	}
	if slices.Contains(tree.VisibleNodes(), ids["link"]) {
		t.Error("top link should have scrolled out of the viewport")
	}
}

func TestScrollClamping(t *testing.T) {
	tree, _ := buildTestPage()
	moved := tree.Scroll(-500)
	if moved != 0 || tree.ViewportTop != 0 {
		t.Errorf("scrolling above the page should clamp: moved=%v top=%v", moved, tree.ViewportTop)
	}
	moved = tree.Scroll(1e9)
	if tree.ViewportTop != 2000 || moved != 2000 {
		t.Errorf("scrolling past the bottom should clamp to 2000, got top=%v moved=%v", tree.ViewportTop, moved)
	}
	if tree.ScrollFraction() != 1 {
		t.Errorf("ScrollFraction at bottom = %v", tree.ScrollFraction())
	}
	if !tree.Scrollable() {
		t.Error("page should be scrollable")
	}
	flat := NewTree("flat", 500, 1000)
	if flat.Scrollable() || flat.ScrollFraction() != 0 {
		t.Error("single-viewport page should not be scrollable")
	}
}

func TestFractions(t *testing.T) {
	tree, ids := buildTestPage()
	cf := tree.ClickableFraction()
	// link(0.05) + toggle(0.04) + form is submit-only (not a tap listener? submit is tap) -> includes form 0.1
	if cf <= 0 || cf > 1 {
		t.Fatalf("ClickableFraction out of range: %v", cf)
	}
	lf := tree.LinkFraction()
	if lf <= 0 || lf >= cf {
		t.Errorf("LinkFraction = %v, ClickableFraction = %v", lf, cf)
	}
	// Showing the menu increases the clickable area.
	tree.Node(ids["menu"]).Hidden = false
	if tree.ClickableFraction() <= cf {
		t.Error("showing the menu should increase the clickable fraction")
	}
	if tree.ViewportCenterY() <= 0 || tree.ViewportCenterY() >= 1 {
		t.Errorf("ViewportCenterY = %v", tree.ViewportCenterY())
	}
}

func TestPartialVisibilityArea(t *testing.T) {
	tree := NewTree("p", 2000, 1000)
	root := tree.Root()
	// A node straddling the viewport bottom: only half its height is visible.
	id := tree.Add(&Node{Kind: Link, Parent: root, Y: 900, Height: 200, Area: 0.2,
		Listeners: []webevent.Type{webevent.Click}})
	got := tree.LinkFraction()
	if got <= 0.09 || got >= 0.11 {
		t.Errorf("half-visible node should contribute ~0.1, got %v", got)
	}
	_ = id
}

func TestLNES(t *testing.T) {
	tree, ids := buildTestPage()
	lnes := tree.LNES()
	has := func(types []webevent.Type, typ webevent.Type) bool {
		for _, x := range types {
			if x == typ {
				return true
			}
		}
		return false
	}
	if !has(lnes, webevent.Click) || !has(lnes, webevent.Scroll) || !has(lnes, webevent.Load) || !has(lnes, webevent.Submit) {
		t.Errorf("LNES = %v, want click+scroll+load+submit", lnes)
	}
	if has(lnes, webevent.TouchStart) {
		t.Error("touchstart should not be possible: no listener registered")
	}
	// Hide everything tappable: only scroll remains.
	for _, key := range []string{"link", "toggle", "form", "deep-link"} {
		tree.Node(ids[key]).Hidden = true
	}
	lnes = tree.LNES()
	if has(lnes, webevent.Click) || has(lnes, webevent.Load) {
		t.Errorf("LNES after hiding = %v, should not contain click/load", lnes)
	}
	if !has(lnes, webevent.Scroll) {
		t.Error("scroll should remain possible")
	}
}

func TestApplyEventMenuToggle(t *testing.T) {
	tree, ids := buildTestPage()
	mut := tree.ApplyEvent(webevent.Click, ids["toggle"])
	if mut.Kind != MenuToggled || mut.Menu != ids["menu"] {
		t.Fatalf("mutation = %+v", mut)
	}
	if tree.Node(ids["menu"]).Hidden {
		t.Error("menu should now be visible")
	}
	// Toggling again hides it.
	tree.ApplyEvent(webevent.Click, ids["toggle"])
	if !tree.Node(ids["menu"]).Hidden {
		t.Error("menu should be hidden again")
	}
}

func TestApplyEventNavigationAndScroll(t *testing.T) {
	tree, ids := buildTestPage()
	mut := tree.ApplyEvent(webevent.Click, ids["link"])
	if mut.Kind != Navigated || mut.Page != "article" {
		t.Errorf("mutation = %+v", mut)
	}
	before := tree.ViewportTop
	mut = tree.ApplyEvent(webevent.Scroll, None)
	if mut.Kind != Scrolled || tree.ViewportTop <= before {
		t.Errorf("scroll mutation = %+v, top %v -> %v", mut, before, tree.ViewportTop)
	}
	// A click on a plain node mutates nothing.
	plain := tree.Add(&Node{Kind: Text, Parent: tree.Root(), Y: 10, Height: 10})
	if mut := tree.ApplyEvent(webevent.Click, plain); mut.Kind != NoMutation {
		t.Errorf("plain click mutation = %+v", mut)
	}
	if mut := tree.ApplyEvent(webevent.Load, None); mut.Kind != NoMutation {
		t.Errorf("load mutation = %+v", mut)
	}
}

func TestSemanticTreeRoles(t *testing.T) {
	tree, ids := buildTestPage()
	st := BuildSemanticTree(tree)
	if st.Len() != tree.Len() {
		t.Errorf("semantic tree has %d entries, dom has %d", st.Len(), tree.Len())
	}
	if st.Role(ids["toggle"]) != RoleMenuToggle {
		t.Errorf("toggle role = %v", st.Role(ids["toggle"]))
	}
	if st.Role(ids["link"]) != RoleLink {
		t.Errorf("link role = %v", st.Role(ids["link"]))
	}
	if st.Role(ids["form"]) != RoleForm {
		t.Errorf("form role = %v", st.Role(ids["form"]))
	}
	if st.Role(tree.Root()) != RoleDocument {
		t.Errorf("root role = %v", st.Role(tree.Root()))
	}
	if st.Node(ids["item1"]).Navigates != "section1" {
		t.Errorf("item1 navigates = %q", st.Node(ids["item1"]).Navigates)
	}
}

func TestPostEventLNESMenuToggleWithoutEvaluation(t *testing.T) {
	tree, ids := buildTestPage()
	st := BuildSemanticTree(tree)
	// Before the toggle, the menu items' navigation targets are invisible, so
	// the post-click LNES (of the toggle) must include Load via the menu
	// items becoming visible — computed WITHOUT mutating the live DOM.
	menuHiddenBefore := tree.Node(ids["menu"]).Hidden
	lnes := st.PostEventLNES(webevent.Click, ids["toggle"])
	if tree.Node(ids["menu"]).Hidden != menuHiddenBefore {
		t.Fatal("PostEventLNES must not leave the DOM mutated")
	}
	hasClick := false
	for _, typ := range lnes {
		if typ == webevent.Click {
			hasClick = true
		}
	}
	if !hasClick {
		t.Errorf("post-toggle LNES = %v, want click present (menu items)", lnes)
	}
}

func TestPostEventLNESNavigationAndMove(t *testing.T) {
	tree, ids := buildTestPage()
	st := BuildSemanticTree(tree)
	if lnes := st.PostEventLNES(webevent.Click, ids["link"]); lnes != nil {
		t.Errorf("navigation post-LNES should be nil (unknown page), got %v", lnes)
	}
	top := tree.ViewportTop
	lnes := st.PostEventLNES(webevent.Scroll, None)
	if tree.ViewportTop != top {
		t.Error("PostEventLNES for a move must restore the scroll position")
	}
	if len(lnes) == 0 {
		t.Error("post-scroll LNES should not be empty")
	}
	// A tap on a non-semantic node leaves the LNES unchanged.
	plain := tree.Add(&Node{Kind: Text, Parent: tree.Root(), Y: 10, Height: 10})
	if got := st.PostEventLNES(webevent.Click, plain); len(got) == 0 {
		t.Error("plain-tap post-LNES should equal the current LNES")
	}
}

func TestInvalidNodePanics(t *testing.T) {
	tree, _ := buildTestPage()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid node id")
		}
	}()
	tree.Node(NodeID(9999))
}

func TestKindAndRoleStrings(t *testing.T) {
	if Document.String() != "document" || MenuItem.String() != "menuitem" {
		t.Error("Kind names wrong")
	}
	if Kind(99).String() == "" || Role(99).String() == "" {
		t.Error("unknown kinds/roles should render")
	}
	if RoleMenuToggle.String() != "menutoggle" {
		t.Error("Role names wrong")
	}
}

// Property: ClickableFraction and LinkFraction are always within [0, 1]
// regardless of scroll position.
func TestFractionBoundsProperty(t *testing.T) {
	f := func(scrollRaw uint16) bool {
		tree, _ := buildTestPage()
		tree.Scroll(float64(scrollRaw))
		cf := tree.ClickableFraction()
		lf := tree.LinkFraction()
		return cf >= 0 && cf <= 1 && lf >= 0 && lf <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: scrolling never moves the viewport outside the page.
func TestScrollBoundsProperty(t *testing.T) {
	f := func(deltas []int16) bool {
		tree, _ := buildTestPage()
		for _, d := range deltas {
			tree.Scroll(float64(d))
			if tree.ViewportTop < 0 || tree.ViewportTop > tree.PageHeight-tree.ViewportHeight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
