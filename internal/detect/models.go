package detect

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Model is a binary classifier over feature vectors; labels are +1
// (malicious) and -1 (benign).
type Model interface {
	Name() string
	Fit(x [][]float64, y []int) error
	Predict(row []float64) int
}

// checkDataset validates a labelled dataset.
func checkDataset(x [][]float64, y []int) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("detect: bad dataset shape (%d samples, %d labels)", len(x), len(y))
	}
	d := len(x[0])
	for i := range x {
		if len(x[i]) != d {
			return fmt.Errorf("detect: ragged row %d", i)
		}
		if y[i] != 1 && y[i] != -1 {
			return fmt.Errorf("detect: label %d at row %d (want +/-1)", y[i], i)
		}
	}
	return nil
}

// SVM is a linear soft-margin SVM trained with the Pegasos stochastic
// subgradient method.
type SVM struct {
	Lambda float64 // regularization (default 1e-4)
	Epochs int     // passes over the data (default 200)
	Seed   int64

	w []float64
	b float64
}

// Name implements Model.
func (s *SVM) Name() string { return "SVM" }

// Fit implements Model.
func (s *SVM) Fit(x [][]float64, y []int) error {
	if err := checkDataset(x, y); err != nil {
		return err
	}
	lambda := s.Lambda
	if lambda <= 0 {
		lambda = 1e-4
	}
	epochs := s.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	d := len(x[0])
	s.w = make([]float64, d)
	s.b = 0
	rng := rand.New(rand.NewSource(s.Seed + 1))
	t := 1
	for e := 0; e < epochs; e++ {
		perm := rng.Perm(len(x))
		for _, i := range perm {
			eta := 1 / (lambda * float64(t))
			t++
			margin := float64(y[i]) * (dot(s.w, x[i]) + s.b)
			for j := range s.w {
				s.w[j] *= 1 - eta*lambda
			}
			if margin < 1 {
				for j := range s.w {
					s.w[j] += eta * float64(y[i]) * x[i][j]
				}
				s.b += eta * float64(y[i])
			}
		}
	}
	return nil
}

// Predict implements Model.
func (s *SVM) Predict(row []float64) int {
	if dot(s.w, row)+s.b >= 0 {
		return 1
	}
	return -1
}

// LogisticRegression is a batch gradient-descent logistic classifier.
type LogisticRegression struct {
	LR     float64 // learning rate (default 0.1)
	Epochs int     // default 300
	L2     float64 // ridge penalty (default 1e-4)

	w []float64
	b float64
}

// Name implements Model.
func (l *LogisticRegression) Name() string { return "LogisticRegression" }

// Fit implements Model.
func (l *LogisticRegression) Fit(x [][]float64, y []int) error {
	if err := checkDataset(x, y); err != nil {
		return err
	}
	lr := l.LR
	if lr <= 0 {
		lr = 0.1
	}
	epochs := l.Epochs
	if epochs <= 0 {
		epochs = 300
	}
	l2 := l.L2
	if l2 < 0 {
		l2 = 0
	} else if l2 == 0 {
		l2 = 1e-4
	}
	d := len(x[0])
	l.w = make([]float64, d)
	l.b = 0
	n := float64(len(x))
	gw := make([]float64, d)
	for e := 0; e < epochs; e++ {
		for j := range gw {
			gw[j] = l2 * l.w[j]
		}
		gb := 0.0
		for i := range x {
			t := 0.0
			if y[i] == 1 {
				t = 1
			}
			p := sigmoid(dot(l.w, x[i]) + l.b)
			err := p - t
			for j := range x[i] {
				gw[j] += err * x[i][j] / n
			}
			gb += err / n
		}
		for j := range l.w {
			l.w[j] -= lr * gw[j]
		}
		l.b -= lr * gb
	}
	return nil
}

// Predict implements Model.
func (l *LogisticRegression) Predict(row []float64) int {
	if sigmoid(dot(l.w, row)+l.b) >= 0.5 {
		return 1
	}
	return -1
}

// DecisionTree is a depth-limited CART classifier with Gini splits.
type DecisionTree struct {
	MaxDepth    int // default 5
	MinLeafSize int // default 3

	root *treeNode
}

type treeNode struct {
	feature int
	thresh  float64
	label   int // leaf label when left/right nil
	left    *treeNode
	right   *treeNode
}

// Name implements Model.
func (d *DecisionTree) Name() string { return "DecisionTree" }

// Fit implements Model.
func (d *DecisionTree) Fit(x [][]float64, y []int) error {
	if err := checkDataset(x, y); err != nil {
		return err
	}
	if d.MaxDepth <= 0 {
		d.MaxDepth = 5
	}
	if d.MinLeafSize <= 0 {
		d.MinLeafSize = 3
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	d.root = d.build(x, y, idx, 0)
	return nil
}

func majority(y []int, idx []int) int {
	s := 0
	for _, i := range idx {
		s += y[i]
	}
	if s >= 0 {
		return 1
	}
	return -1
}

func gini(y []int, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	pos := 0
	for _, i := range idx {
		if y[i] == 1 {
			pos++
		}
	}
	p := float64(pos) / float64(len(idx))
	return 2 * p * (1 - p)
}

func (d *DecisionTree) build(x [][]float64, y []int, idx []int, depth int) *treeNode {
	if depth >= d.MaxDepth || len(idx) <= d.MinLeafSize || gini(y, idx) == 0 {
		return &treeNode{feature: -1, label: majority(y, idx)}
	}
	nFeat := len(x[0])
	bestGain, bestF, bestT := 0.0, -1, 0.0
	parent := gini(y, idx)
	vals := make([]float64, 0, len(idx))
	for f := 0; f < nFeat; f++ {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, x[i][f])
		}
		sort.Float64s(vals)
		for k := 1; k < len(vals); k++ {
			if vals[k] == vals[k-1] {
				continue
			}
			t := (vals[k] + vals[k-1]) / 2
			var left, right []int
			for _, i := range idx {
				if x[i][f] <= t {
					left = append(left, i)
				} else {
					right = append(right, i)
				}
			}
			nl, nr := float64(len(left)), float64(len(right))
			gain := parent - (nl*gini(y, left)+nr*gini(y, right))/(nl+nr)
			if gain > bestGain {
				bestGain, bestF, bestT = gain, f, t
			}
		}
	}
	if bestF < 0 {
		return &treeNode{feature: -1, label: majority(y, idx)}
	}
	var left, right []int
	for _, i := range idx {
		if x[i][bestF] <= bestT {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return &treeNode{
		feature: bestF,
		thresh:  bestT,
		left:    d.build(x, y, left, depth+1),
		right:   d.build(x, y, right, depth+1),
	}
}

// Predict implements Model.
func (d *DecisionTree) Predict(row []float64) int {
	n := d.root
	for n != nil && n.feature >= 0 {
		if row[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return -1
	}
	return n.label
}

// KNN is a k-nearest-neighbour classifier (Euclidean).
type KNN struct {
	K int // default 5

	x [][]float64
	y []int
}

// Name implements Model.
func (k *KNN) Name() string { return "kNN" }

// Fit implements Model.
func (k *KNN) Fit(x [][]float64, y []int) error {
	if err := checkDataset(x, y); err != nil {
		return err
	}
	if k.K <= 0 {
		k.K = 5
	}
	k.x = x
	k.y = y
	return nil
}

// Predict implements Model.
func (k *KNN) Predict(row []float64) int {
	type nd struct {
		d float64
		y int
	}
	nds := make([]nd, len(k.x))
	for i := range k.x {
		var s float64
		for j := range row {
			diff := row[j] - k.x[i][j]
			s += diff * diff
		}
		nds[i] = nd{d: s, y: k.y[i]}
	}
	sort.Slice(nds, func(a, b int) bool { return nds[a].d < nds[b].d })
	n := k.K
	if n > len(nds) {
		n = len(nds)
	}
	vote := 0
	for i := 0; i < n; i++ {
		vote += nds[i].y
	}
	if vote >= 0 {
		return 1
	}
	return -1
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sigmoid(z float64) float64 {
	return 1 / (1 + math.Exp(-z))
}
