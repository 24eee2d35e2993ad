// Package dom provides the Document Object Model substrate that the PES
// predictor analyzes.
//
// The model is intentionally structural: nodes have a kind, a vertical
// position on the page, an on-screen area, registered event listeners, and
// the two pieces of semantic information the paper's Semantic Tree memoizes
// during parsing — whether activating the node toggles the visibility of
// another subtree (collapsible menus) and whether it navigates to another
// page. This is enough to compute the application-inherent prediction
// features of Table 1 (clickable-region and visible-link percentages) and
// the Likely-Next-Event-Set (LNES) used by the DOM analyzer, including the
// post-event DOM state after a menu toggle, without evaluating callbacks.
package dom

import (
	"fmt"

	"repro/internal/webevent"
)

// NodeID identifies a node within a Tree. The zero NodeID means "no node".
type NodeID int

// None is the absent-node sentinel.
const None NodeID = 0

// Kind classifies a DOM node by its role on the page.
type Kind int

const (
	// Document is the root node of a page.
	Document Kind = iota
	// Container is a generic block element (div/section).
	Container
	// Text is static text content.
	Text
	// Link is an anchor that may navigate to another page.
	Link
	// Button is a clickable control.
	Button
	// Image is a picture; images may or may not carry listeners.
	Image
	// Input is a form field.
	Input
	// Form is a form container; submit events are delivered here.
	Form
	// Menu is a collapsible container toggled by some Button/Link.
	Menu
	// MenuItem is an entry inside a Menu.
	MenuItem
	// Video is an embedded media element.
	Video

	// NumKinds is the number of node kinds.
	NumKinds int = iota
)

// String names the node kind.
func (k Kind) String() string {
	names := [...]string{"document", "container", "text", "link", "button",
		"image", "input", "form", "menu", "menuitem", "video"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is one element of the DOM tree.
type Node struct {
	ID       NodeID
	Kind     Kind
	Parent   NodeID
	Children []NodeID
	// Listeners are the event types registered on this node.
	Listeners []webevent.Type
	// Hidden corresponds to display:none — the node and its subtree do not
	// occupy screen space.
	Hidden bool
	// Y and Height place the node vertically on the page, in abstract page
	// units (the page spans [0, Tree.PageHeight)).
	Y, Height float64
	// Area is the fraction of the viewport the node covers when it is fully
	// inside the viewport (0–1).
	Area float64
	// TogglesMenu records, in the Semantic Tree sense, that activating this
	// node flips the Hidden state of the referenced node.
	TogglesMenu NodeID
	// NavigatesTo records that activating this node navigates to the named
	// page ("" when it does not navigate).
	NavigatesTo string
}

// Tappable reports whether the node reacts to any tap-interaction event.
func (n *Node) Tappable() bool {
	for _, l := range n.Listeners {
		if l.IsTap() {
			return true
		}
	}
	return false
}

// Tree is a DOM tree plus the viewport geometry of the page.
type Tree struct {
	// Page is the name of the page this tree renders.
	Page string
	// PageHeight is the total scrollable height in page units.
	PageHeight float64
	// ViewportHeight is the visible window height in page units.
	ViewportHeight float64
	// ViewportTop is the current scroll offset.
	ViewportTop float64

	nodes []*Node // nodes[0] is unused so that NodeID 0 can mean "none"
	root  NodeID
}

// NewTree creates a tree for the named page with the given geometry and a
// Document root spanning the whole page. Scroll listeners should be
// registered on the root by the page builder when the page is scrollable.
func NewTree(page string, pageHeight, viewportHeight float64) *Tree {
	if pageHeight < viewportHeight {
		pageHeight = viewportHeight
	}
	t := &Tree{
		Page:           page,
		PageHeight:     pageHeight,
		ViewportHeight: viewportHeight,
		nodes:          make([]*Node, 1, 64),
	}
	t.root = t.Add(&Node{Kind: Document, Y: 0, Height: pageHeight})
	return t
}

// Add inserts a node into the tree, assigning its ID and linking it to its
// parent (if any). It returns the new node's ID.
func (t *Tree) Add(n *Node) NodeID {
	id := NodeID(len(t.nodes))
	n.ID = id
	t.nodes = append(t.nodes, n)
	if n.Parent != None {
		p := t.Node(n.Parent)
		p.Children = append(p.Children, id)
	}
	return id
}

// Root returns the ID of the document root.
func (t *Tree) Root() NodeID { return t.root }

// Clone returns an independent copy of the tree that can be mutated (menu
// toggles, scrolling) without affecting the receiver. Node value fields are
// copied; the Children and Listeners slices are shared with the original
// because they are only ever appended to while a page is being built, never
// after. Cloning a built page is much cheaper than rebuilding it, which is
// what makes the shared page-tree cache (package webapp) pay off.
func (t *Tree) Clone() *Tree {
	ct := *t
	ct.nodes = make([]*Node, len(t.nodes))
	// nodes[0] is the nil "none" slot; copy the rest by value.
	copied := make([]Node, len(t.nodes)-1)
	for i, n := range t.nodes[1:] {
		copied[i] = *n
		ct.nodes[i+1] = &copied[i]
	}
	return &ct
}

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int { return len(t.nodes) - 1 }

// Node returns the node with the given ID. It panics for invalid IDs; the
// tree is an internal data structure and IDs always come from Add.
func (t *Tree) Node(id NodeID) *Node {
	if id <= 0 || int(id) >= len(t.nodes) {
		panic(fmt.Sprintf("dom: invalid node id %d", id))
	}
	return t.nodes[id]
}

// Walk visits every node in ID order.
func (t *Tree) Walk(f func(*Node)) {
	for _, n := range t.nodes[1:] {
		f(n)
	}
}

// effectiveHidden reports whether the node or any ancestor is hidden.
func (t *Tree) effectiveHidden(n *Node) bool {
	for {
		if n.Hidden {
			return true
		}
		if n.Parent == None {
			return false
		}
		n = t.Node(n.Parent)
	}
}

// inViewport reports whether the node's vertical extent intersects the
// current viewport.
func (t *Tree) inViewport(n *Node) bool {
	top := t.ViewportTop
	bottom := top + t.ViewportHeight
	return n.Y < bottom && n.Y+n.Height > top
}

// VisibleNodes returns the IDs of all currently visible nodes in ID order.
func (t *Tree) VisibleNodes() []NodeID {
	var out []NodeID
	for _, n := range t.nodes[1:] {
		if !t.effectiveHidden(n) && t.inViewport(n) {
			out = append(out, n.ID)
		}
	}
	return out
}

// visibleAreaFraction returns the fraction of the viewport covered by the
// visible portion of node n (its Area scaled by the visible share of its
// height).
func (t *Tree) visibleAreaFraction(n *Node) float64 {
	if n.Height <= 0 {
		return 0
	}
	top := t.ViewportTop
	bottom := top + t.ViewportHeight
	visTop := n.Y
	if visTop < top {
		visTop = top
	}
	visBottom := n.Y + n.Height
	if visBottom > bottom {
		visBottom = bottom
	}
	if visBottom <= visTop {
		return 0
	}
	return n.Area * (visBottom - visTop) / n.Height
}

// ClickableFraction returns the fraction of the viewport covered by visible
// nodes that react to a tap interaction — the paper's "clickable region
// percentage in the viewport" feature. The result is clamped to [0, 1].
func (t *Tree) ClickableFraction() float64 {
	sum := 0.0
	for _, n := range t.nodes[1:] {
		if t.effectiveHidden(n) || !n.Tappable() {
			continue
		}
		sum += t.visibleAreaFraction(n)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// LinkFraction returns the fraction of the viewport covered by visible link
// nodes — the paper's "visible link percentage in the viewport" feature.
func (t *Tree) LinkFraction() float64 {
	sum := 0.0
	for _, n := range t.nodes[1:] {
		if n.Kind != Link || t.effectiveHidden(n) {
			continue
		}
		sum += t.visibleAreaFraction(n)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// ScrollStepFraction is the fraction of the viewport height a single move
// event advances the viewport by (one flick of the thumb).
const ScrollStepFraction = 0.55

// Scrollable reports whether the page extends beyond a single viewport.
func (t *Tree) Scrollable() bool { return t.PageHeight > t.ViewportHeight+1e-9 }

// AtBottom reports whether the viewport has (essentially) reached the end of
// the page, i.e. a further downward scroll would not reveal new content.
func (t *Tree) AtBottom() bool { return t.ScrollFraction() >= 0.995 }

// Scroll moves the viewport by dy page units, clamped to the page bounds,
// and returns the actual displacement.
func (t *Tree) Scroll(dy float64) float64 {
	maxTop := t.PageHeight - t.ViewportHeight
	newTop := t.ViewportTop + dy
	if newTop < 0 {
		newTop = 0
	}
	if newTop > maxTop {
		newTop = maxTop
	}
	moved := newTop - t.ViewportTop
	t.ViewportTop = newTop
	return moved
}

// ScrollFraction returns how far down the page the viewport currently is,
// in [0, 1]; 0 when the page is not scrollable.
func (t *Tree) ScrollFraction() float64 {
	maxTop := t.PageHeight - t.ViewportHeight
	if maxTop <= 0 {
		return 0
	}
	return t.ViewportTop / maxTop
}

// ViewportCenterY returns the vertical centre of the viewport as a fraction
// of the page height; used for the "distance to previous click" feature.
func (t *Tree) ViewportCenterY() float64 {
	if t.PageHeight <= 0 {
		return 0
	}
	return (t.ViewportTop + t.ViewportHeight/2) / t.PageHeight
}

// VisibleTappable returns the visible nodes that react to tap events.
func (t *Tree) VisibleTappable() []NodeID {
	var out []NodeID
	for _, id := range t.VisibleNodes() {
		if t.Node(id).Tappable() {
			out = append(out, id)
		}
	}
	return out
}

// VisitVisibleTappable calls f for every visible tappable node in ID order
// (the same order VisibleTappable returns), stopping early when f returns
// false. It is the allocation-free counterpart of VisibleTappable, used on
// the predictor's per-event path.
func (t *Tree) VisitVisibleTappable(f func(*Node) bool) {
	for _, n := range t.nodes[1:] {
		if n.Tappable() && !t.effectiveHidden(n) && t.inViewport(n) {
			if !f(n) {
				return
			}
		}
	}
}

// LNES computes the Likely-Next-Event-Set: the set of DOM-level event types
// that could possibly be triggered by the next user input given the current
// visible DOM state. A Load is possible only when a visible node navigates;
// move events are possible only when the page is scrollable, further content
// remains below the viewport, and a move listener is registered on a visible
// node (typically the document root).
func (t *Tree) LNES() []webevent.Type {
	return t.AppendLNES(nil)
}

// AppendLNES appends the Likely-Next-Event-Set to dst (in ascending type
// order, the same as LNES) and returns the extended slice. Passing a buffer
// with spare capacity makes the computation allocation-free; it is the
// per-prediction fast path of the DOM analyzer.
func (t *Tree) AppendLNES(dst []webevent.Type) []webevent.Type {
	var set [webevent.NumTypes]bool
	moveOK := t.Scrollable() && !t.AtBottom()
	for _, n := range t.nodes[1:] {
		if t.effectiveHidden(n) || !t.inViewport(n) {
			continue
		}
		for _, l := range n.Listeners {
			if l.IsMove() && !moveOK {
				continue
			}
			set[l] = true
		}
		if n.NavigatesTo != "" && n.Tappable() {
			set[webevent.Load] = true
		}
	}
	for typ := webevent.Type(0); int(typ) < webevent.NumTypes; typ++ {
		if set[typ] {
			dst = append(dst, typ)
		}
	}
	return dst
}

// MutationKind describes what applying an event did to the DOM.
type MutationKind int

const (
	// NoMutation means the DOM structure did not change.
	NoMutation MutationKind = iota
	// MenuToggled means a collapsible subtree changed visibility.
	MenuToggled
	// Navigated means the event navigates to another page; the caller must
	// replace the tree with the destination page's tree.
	Navigated
	// Scrolled means the viewport moved.
	Scrolled
)

// Mutation is the result of applying an event to the tree.
type Mutation struct {
	Kind MutationKind
	// Menu is the toggled menu node for MenuToggled mutations.
	Menu NodeID
	// Page is the destination page for Navigated mutations.
	Page string
}

// ApplyEvent mutates the DOM in response to an event delivered to target:
// menu toggles flip the referenced subtree's visibility, navigation taps
// report the destination page, and move events scroll the viewport by one
// step (ScrollStepFraction of the viewport). Unknown targets (e.g. a load
// event) leave the DOM unchanged.
func (t *Tree) ApplyEvent(typ webevent.Type, target NodeID) Mutation {
	if typ.IsMove() {
		t.Scroll(t.ViewportHeight * ScrollStepFraction)
		return Mutation{Kind: Scrolled}
	}
	if target == None || int(target) >= len(t.nodes) || !typ.IsTap() {
		return Mutation{Kind: NoMutation}
	}
	n := t.Node(target)
	if n.TogglesMenu != None {
		menu := t.Node(n.TogglesMenu)
		menu.Hidden = !menu.Hidden
		return Mutation{Kind: MenuToggled, Menu: menu.ID}
	}
	if n.NavigatesTo != "" {
		return Mutation{Kind: Navigated, Page: n.NavigatesTo}
	}
	return Mutation{Kind: NoMutation}
}
