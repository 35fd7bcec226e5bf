// Package m5p implements the M5P model tree (Wang & Witten 1997; paper
// §III-D): a regression tree whose splits minimize intra-subset variation
// (maximize standard-deviation reduction), pruned back into linear
// regression planes, with leaf predictions smoothed along the path to the
// root. The paper found M5P second-best after REP-Tree, ~10% higher
// error.
package m5p

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/ml"
	"repro/internal/ml/linreg"
	"repro/internal/ml/packed"
	"repro/internal/ml/treeutil"
)

// Options tunes tree construction.
type Options struct {
	// MinInstances is the minimum number of rows per leaf (M5 default 4).
	MinInstances int
	// SDFraction stops splitting when the node's target standard
	// deviation falls below this fraction of the root's (M5 default 5%).
	SDFraction float64
	// SmoothingK is the smoothing constant k in
	// p' = (n·p + k·q)/(n + k) (M5 default 15). 0 disables smoothing.
	SmoothingK float64
	// Prune enables pruning subtrees into linear planes when the
	// complexity-corrected model error does not exceed the subtree error.
	Prune bool
	// MaxDepth caps tree depth (0 = unlimited).
	MaxDepth int
}

// DefaultOptions returns the classic M5 settings.
func DefaultOptions() Options {
	return Options{MinInstances: 4, SDFraction: 0.05, SmoothingK: 15, Prune: true}
}

// Validate reports option errors.
func (o *Options) Validate() error {
	if o.MinInstances < 1 {
		return fmt.Errorf("m5p: MinInstances must be >= 1, got %d", o.MinInstances)
	}
	if o.SDFraction < 0 || o.SDFraction >= 1 {
		return fmt.Errorf("m5p: SDFraction must be in [0,1), got %v", o.SDFraction)
	}
	if o.SmoothingK < 0 {
		return fmt.Errorf("m5p: SmoothingK must be >= 0, got %v", o.SmoothingK)
	}
	if o.MaxDepth < 0 {
		return fmt.Errorf("m5p: MaxDepth must be >= 0, got %d", o.MaxDepth)
	}
	return nil
}

type node struct {
	// split fields, meaningful when !leaf
	feature   int
	threshold float64
	left      *node
	right     *node

	leaf  bool
	n     int
	model *linreg.Model // linear plane at this node
	mean  float64       // fallback constant prediction

	// subtreeAbsErr is the training absolute error of the subtree,
	// computed during pruning.
	subtreeAbsErr float64
}

// Model is a fitted M5P model tree.
type Model struct {
	opts   Options
	root   *node
	dim    int
	fitted bool
	// Leaves and Nodes report fitted tree size.
	Leaves int
	Nodes  int
}

// New returns an unfitted M5P tree.
func New(opts Options) (*Model, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Model{opts: opts}, nil
}

// Name implements ml.Regressor.
func (m *Model) Name() string { return "m5p" }

// Fit grows, prunes, and finalizes the model tree.
func (m *Model) Fit(X [][]float64, y []float64) error {
	dim, err := ml.CheckTrainingSet(X, y)
	if err != nil {
		return err
	}
	Xc := ml.CloneMatrix(X)
	yc := ml.CloneVector(y)
	idx := make([]int, len(Xc))
	for i := range idx {
		idx[i] = i
	}
	rootSD := treeutil.SD(yc, idx)
	root := m.build(Xc, yc, idx, rootSD, 0)
	if m.opts.Prune {
		m.prune(root, Xc, yc, idx)
	}
	m.root = root
	m.dim = dim
	m.fitted = true
	m.Leaves, m.Nodes = 0, 0
	m.count(root)
	return nil
}

// build grows the unpruned tree. Every node gets a linear model: interior
// nodes need one for smoothing and as the pruning candidate.
func (m *Model) build(X [][]float64, y []float64, idx []int, rootSD float64, depth int) *node {
	nd := &node{n: len(idx), mean: treeutil.Mean(y, idx)}
	nd.model = fitNodeModel(X, y, idx)

	stop := len(idx) < 2*m.opts.MinInstances ||
		treeutil.SD(y, idx) < m.opts.SDFraction*rootSD ||
		(m.opts.MaxDepth > 0 && depth >= m.opts.MaxDepth)
	if !stop {
		if split, ok := treeutil.BestSplit(X, y, idx, m.opts.MinInstances); ok {
			left, right := treeutil.Partition(X, idx, split)
			if len(left) >= m.opts.MinInstances && len(right) >= m.opts.MinInstances {
				nd.feature = split.Feature
				nd.threshold = split.Threshold
				nd.left = m.build(X, y, left, rootSD, depth+1)
				nd.right = m.build(X, y, right, rootSD, depth+1)
				return nd
			}
		}
	}
	nd.leaf = true
	return nd
}

// fitNodeModel fits the node's linear plane; nil means "use the mean".
func fitNodeModel(X [][]float64, y []float64, idx []int) *linreg.Model {
	if len(idx) < 2 {
		return nil
	}
	subX := make([][]float64, len(idx))
	subY := make([]float64, len(idx))
	for k, i := range idx {
		subX[k] = X[i]
		subY[k] = y[i]
	}
	lm := linreg.New()
	if err := lm.Fit(subX, subY); err != nil {
		return nil
	}
	return lm
}

// nodePredict is the node's own (unsmoothed) prediction.
func (nd *node) nodePredict(x []float64) float64 {
	if nd.model != nil {
		if p := nd.model.Predict(x); !math.IsNaN(p) {
			return p
		}
	}
	return nd.mean
}

// prune walks bottom-up replacing subtrees by their node model when the
// complexity-corrected linear-model error is no worse than the subtree
// error (M5's pruning rule with the (n+v)/(n-v) correction factor).
func (m *Model) prune(nd *node, X [][]float64, y []float64, idx []int) {
	if nd.leaf {
		nd.subtreeAbsErr = rawAbsErr(nd, X, y, idx)
		return
	}
	left, right := treeutil.Partition(X, idx, treeutil.Split{Feature: nd.feature, Threshold: nd.threshold})
	m.prune(nd.left, X, y, left)
	m.prune(nd.right, X, y, right)
	nd.subtreeAbsErr = nd.left.subtreeAbsErr + nd.right.subtreeAbsErr

	n := float64(len(idx))
	v := 1.0
	if nd.model != nil {
		v = float64(len(nd.model.Coef)) + 1
	}
	penalty := 1.0
	if n > v {
		penalty = (n + v) / (n - v)
	} else {
		penalty = 10 // far fewer points than parameters: strongly distrust
	}
	// Tolerance keeps exactly-fitting planes (both errors ~0 up to
	// floating-point noise) from being rejected on noise alone.
	var yScale float64
	for _, i := range idx {
		yScale += math.Abs(y[i])
	}
	tol := 1e-9 * (yScale + n)
	modelErr := rawAbsErr(nd, X, y, idx) * penalty
	if modelErr <= nd.subtreeAbsErr+tol {
		nd.leaf = true
		nd.left, nd.right = nil, nil
		nd.subtreeAbsErr = rawAbsErr(nd, X, y, idx)
	}
}

// rawAbsErr sums |y - nodePredict| over idx.
func rawAbsErr(nd *node, X [][]float64, y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += math.Abs(y[i] - nd.nodePredict(X[i]))
	}
	return s
}

func (m *Model) count(nd *node) {
	if nd == nil {
		return
	}
	m.Nodes++
	if nd.leaf {
		m.Leaves++
		return
	}
	m.count(nd.left)
	m.count(nd.right)
}

// Predict implements ml.Regressor with M5 smoothing: the leaf value is
// combined with each ancestor's linear model on the way back to the root:
// p' = (n·p + k·q)/(n + k).
func (m *Model) Predict(x []float64) float64 {
	if !m.fitted || len(x) != m.dim {
		return math.NaN()
	}
	// Collect the root-to-leaf path.
	path := make([]*node, 0, 16)
	nd := m.root
	for {
		path = append(path, nd)
		if nd.leaf {
			break
		}
		if x[nd.feature] <= nd.threshold {
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	leaf := path[len(path)-1]
	p := leaf.nodePredict(x)
	if m.opts.SmoothingK == 0 {
		return p
	}
	k := m.opts.SmoothingK
	nChild := float64(leaf.n)
	for i := len(path) - 2; i >= 0; i-- {
		q := path[i].nodePredict(x)
		p = (nChild*p + k*q) / (nChild + k)
		nChild = float64(path[i].n)
	}
	return p
}

var _ ml.Regressor = (*Model)(nil)

// nodeJSON is the serialized recursive tree node.
type nodeJSON struct {
	Feature   int           `json:"feature,omitempty"`
	Threshold float64       `json:"threshold,omitempty"`
	Leaf      bool          `json:"leaf"`
	N         int           `json:"n"`
	Mean      float64       `json:"mean"`
	Coef      packed.Floats `json:"coef,omitempty"` // linear plane; empty = mean only
	Intercept float64       `json:"intercept,omitempty"`
	Left      *nodeJSON     `json:"left,omitempty"`
	Right     *nodeJSON     `json:"right,omitempty"`
}

type m5pJSON struct {
	Options Options   `json:"options"`
	Dim     int       `json:"dim"`
	Root    *nodeJSON `json:"root"`
}

func nodeToJSON(nd *node) *nodeJSON {
	if nd == nil {
		return nil
	}
	out := &nodeJSON{
		Feature: nd.feature, Threshold: nd.threshold,
		Leaf: nd.leaf, N: nd.n, Mean: nd.mean,
	}
	if nd.model != nil {
		out.Coef = nd.model.Coef
		out.Intercept = nd.model.Intercept
	}
	if !nd.leaf {
		out.Left = nodeToJSON(nd.left)
		out.Right = nodeToJSON(nd.right)
	}
	return out
}

func nodeFromJSON(nj *nodeJSON, dim int) (*node, error) {
	if nj == nil {
		return nil, fmt.Errorf("m5p: missing node in serialized tree")
	}
	nd := &node{
		feature: nj.Feature, threshold: nj.Threshold,
		leaf: nj.Leaf, n: nj.N, mean: nj.Mean,
	}
	if len(nj.Coef) > 0 {
		if len(nj.Coef) != dim {
			return nil, fmt.Errorf("m5p: node plane has %d coefficients, want %d", len(nj.Coef), dim)
		}
		nd.model = linreg.FromCoef(nj.Coef, nj.Intercept)
	}
	if !nd.leaf {
		if nj.Feature < 0 || nj.Feature >= dim {
			return nil, fmt.Errorf("m5p: split feature %d out of range [0,%d)", nj.Feature, dim)
		}
		var err error
		if nd.left, err = nodeFromJSON(nj.Left, dim); err != nil {
			return nil, err
		}
		if nd.right, err = nodeFromJSON(nj.Right, dim); err != nil {
			return nil, err
		}
	}
	return nd, nil
}

// MarshalJSON serializes a fitted model tree.
func (m *Model) MarshalJSON() ([]byte, error) {
	if !m.fitted {
		return nil, ml.ErrNotFitted
	}
	return json.Marshal(m5pJSON{Options: m.opts, Dim: m.dim, Root: nodeToJSON(m.root)})
}

// UnmarshalJSON restores a model tree serialized by MarshalJSON.
func (m *Model) UnmarshalJSON(data []byte) error {
	var s m5pJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("m5p: decoding model: %w", err)
	}
	if s.Dim <= 0 {
		return fmt.Errorf("m5p: serialized model has dimension %d", s.Dim)
	}
	root, err := nodeFromJSON(s.Root, s.Dim)
	if err != nil {
		return err
	}
	m.opts = s.Options
	m.dim = s.Dim
	m.root = root
	m.fitted = true
	m.Leaves, m.Nodes = 0, 0
	m.count(root)
	return nil
}
