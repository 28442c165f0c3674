// Package quadtree implements the Region Quadtree spatial index of §4.1.1 of
// the paper. The tree hierarchically decomposes the Dublin bounding box into
// four equal sub-regions per split; a region is split when it holds more than
// a configurable maximum number of seed points, so the resulting tree is
// unbalanced and follows the density of the seeded landmarks (Figure 6).
//
// Rules in the traffic-management system monitor either a whole quadtree
// layer (all regions at a given depth) or an explicit area of interest; the
// tree therefore exposes per-layer region enumeration and point→region
// resolution at every layer, which the AreaTracker bolt queries for every
// incoming bus trace.
package quadtree

import (
	"fmt"
	"sort"

	"trafficcep/internal/geo"
)

// AreaID identifies one region of the quadtree. IDs are stable for a given
// construction order: the root is "0", and children append their quadrant
// index, e.g. "0.2.1".
type AreaID string

// Node is one region of the quadtree. Leaf nodes have no children.
type Node struct {
	ID       AreaID
	Bounds   geo.Rect
	Depth    int
	Points   []geo.Point // seed points retained by this leaf
	Children *[4]*Node   // nil for leaves
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Children == nil }

// Tree is a region quadtree over a fixed bounding box.
//
// The zero value is not usable; construct with New.
type Tree struct {
	root      *Node
	maxPoints int
	maxDepth  int
	size      int // number of seed points inserted
	nodes     int // total node count
}

// Options configure tree construction.
type Options struct {
	// MaxPoints is the maximum number of seed points a region may hold
	// before it is split. Must be >= 1. Defaults to 4.
	MaxPoints int
	// MaxDepth bounds the depth of the tree (root has depth 0). Defaults
	// to 12, which over the Dublin box yields leaf cells of roughly 10 m.
	MaxDepth int
}

// New creates an empty quadtree over the given bounding box.
func New(bounds geo.Rect, opts Options) *Tree {
	if opts.MaxPoints <= 0 {
		opts.MaxPoints = 4
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 12
	}
	return &Tree{
		root:      &Node{ID: "0", Bounds: bounds, Depth: 0},
		maxPoints: opts.MaxPoints,
		maxDepth:  opts.MaxDepth,
		nodes:     1,
	}
}

// Build constructs a quadtree over bounds seeded with the given points
// (e.g. the important Dublin road-segment coordinates of §4.1.1).
func Build(bounds geo.Rect, seeds []geo.Point, opts Options) (*Tree, error) {
	t := New(bounds, opts)
	for _, p := range seeds {
		if err := t.Insert(p); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Insert adds a seed point, splitting regions that exceed MaxPoints.
func (t *Tree) Insert(p geo.Point) error {
	if !t.root.Bounds.Contains(p) {
		return fmt.Errorf("quadtree: point %v outside bounds %+v", p, t.root.Bounds)
	}
	t.insert(t.root, p)
	t.size++
	return nil
}

func (t *Tree) insert(n *Node, p geo.Point) {
	for {
		if n.IsLeaf() {
			n.Points = append(n.Points, p)
			if len(n.Points) > t.maxPoints && n.Depth < t.maxDepth {
				t.split(n)
			}
			return
		}
		n = n.Children[quadrantOf(n.Bounds, p)]
	}
}

// split converts a leaf into an internal node and redistributes its points.
func (t *Tree) split(n *Node) {
	quads := n.Bounds.Quadrants()
	children := new([4]*Node)
	for i := range quads {
		children[i] = &Node{
			ID:     AreaID(fmt.Sprintf("%s.%d", n.ID, i)),
			Bounds: quads[i],
			Depth:  n.Depth + 1,
		}
	}
	pts := n.Points
	n.Points = nil
	n.Children = children
	t.nodes += 4
	for _, p := range pts {
		child := children[quadrantOf(n.Bounds, p)]
		child.Points = append(child.Points, p)
	}
	// A pathological seed set can put every point into the same child;
	// split recursively while any child is over capacity.
	for _, c := range children {
		if len(c.Points) > t.maxPoints && c.Depth < t.maxDepth {
			t.split(c)
		}
	}
}

// quadrantOf returns the index (NW=0, NE=1, SW=2, SE=3) of the quadrant of
// bounds that contains p.
func quadrantOf(bounds geo.Rect, p geo.Point) int {
	c := bounds.Center()
	idx := 0
	if p.Lat < c.Lat {
		idx += 2 // south
	}
	if p.Lon >= c.Lon {
		idx++ // east
	}
	return idx
}

// Size returns the number of seed points inserted.
func (t *Tree) Size() int { return t.size }

// NodeCount returns the total number of nodes in the tree.
func (t *Tree) NodeCount() int { return t.nodes }

// Depth returns the maximum depth of any node in the tree.
func (t *Tree) Depth() int {
	max := 0
	t.walk(t.root, func(n *Node) {
		if n.Depth > max {
			max = n.Depth
		}
	})
	return max
}

// MaxDepth returns the depth bound the tree was built with: no node, and
// so no Path, goes deeper.
func (t *Tree) MaxDepth() int { return t.maxDepth }

// Bounds returns the tree's bounding box.
func (t *Tree) Bounds() geo.Rect { return t.root.Bounds }

func (t *Tree) walk(n *Node, f func(*Node)) {
	f(n)
	if n.Children != nil {
		for _, c := range n.Children {
			t.walk(c, f)
		}
	}
}

// Walk visits every node in the tree in depth-first pre-order.
func (t *Tree) Walk(f func(*Node)) { t.walk(t.root, f) }

// Layer returns every region that is "at" the given layer, sorted by ID.
// Following the paper, a layer is a horizontal cut of the tree: a node
// belongs to layer d if its depth is d, or if it is a leaf with depth < d
// (leaves cover their subtree's space at all deeper layers, so that every
// layer tiles the full bounding box).
func (t *Tree) Layer(depth int) []*Node {
	var out []*Node
	t.walk(t.root, func(n *Node) {
		if n.Depth == depth || (n.IsLeaf() && n.Depth < depth) {
			out = append(out, n)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Leaves returns all leaf regions, sorted by ID. These are the finest
// monitoring granularity ("the leaves of the quadtree" in §5.3).
func (t *Tree) Leaves() []*Node {
	var out []*Node
	t.walk(t.root, func(n *Node) {
		if n.IsLeaf() {
			out = append(out, n)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Locate returns the leaf region containing p, or nil if p is outside the
// tree's bounds.
func (t *Tree) Locate(p geo.Point) *Node {
	if !t.root.Bounds.Contains(p) {
		return nil
	}
	n := t.root
	for !n.IsLeaf() {
		n = n.Children[quadrantOf(n.Bounds, p)]
	}
	return n
}

// LocateAtLayer returns the region of the given layer that contains p, or
// nil if p is outside the tree's bounds. If the tree is shallower than the
// requested layer along p's path, the containing leaf is returned (matching
// the Layer cut semantics).
func (t *Tree) LocateAtLayer(p geo.Point, depth int) *Node {
	if !t.root.Bounds.Contains(p) {
		return nil
	}
	n := t.root
	for n.Depth < depth && !n.IsLeaf() {
		n = n.Children[quadrantOf(n.Bounds, p)]
	}
	return n
}

// Path returns the chain of regions containing p from the root down to the
// containing leaf. The AreaTracker bolt attaches this path to each trace so
// that rules at any layer can resolve their area without re-querying.
func (t *Tree) Path(p geo.Point) []*Node {
	if !t.root.Bounds.Contains(p) {
		return nil
	}
	var path []*Node
	n := t.root
	for {
		path = append(path, n)
		if n.IsLeaf() {
			return path
		}
		n = n.Children[quadrantOf(n.Bounds, p)]
	}
}

// QueryRegion returns all leaf regions intersecting the given rectangle,
// supporting "explicit area of interest" rules (§4.1.1).
func (t *Tree) QueryRegion(r geo.Rect) []*Node {
	var out []*Node
	var rec func(n *Node)
	rec = func(n *Node) {
		if !n.Bounds.Intersects(r) {
			return
		}
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.root)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
