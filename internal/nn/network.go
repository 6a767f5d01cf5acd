package nn

import (
	"fmt"

	"github.com/huffduff/huffduff/internal/tensor"
)

// NodeKind classifies graph nodes.
type NodeKind int

// Graph node kinds.
const (
	KindInput NodeKind = iota
	KindLayer
	KindAdd // elementwise sum of two inputs, optionally followed by ReLU
)

// Node is one vertex of a network DAG. Layer nodes wrap a Layer; Add nodes
// implement residual connections (the dataflow-graph edges the attacker
// recovers from RAW dependencies in the DRAM trace).
type Node struct {
	ID    int
	Kind  NodeKind
	Layer Layer
	In    []int
	// ReLUAfterAdd applies ReLU to the sum (ResNet basic blocks).
	ReLUAfterAdd bool

	out      *tensor.Tensor
	grad     *tensor.Tensor
	reluMask []bool
}

// Out returns the node's most recent forward output (nil before Forward).
func (n *Node) Out() *tensor.Tensor { return n.out }

// Network is a DAG of layers built with Builder. Node IDs are topologically
// ordered by construction.
type Network struct {
	Nodes  []*Node
	OutID  int
	inputs []int
}

// Builder incrementally constructs a Network.
type Builder struct {
	nodes []*Node
}

// NewBuilder returns an empty network builder.
func NewBuilder() *Builder { return &Builder{} }

// Input adds the network input node and returns its ID.
func (b *Builder) Input() int {
	n := &Node{ID: len(b.nodes), Kind: KindInput}
	b.nodes = append(b.nodes, n)
	return n.ID
}

// Layer adds a layer consuming node `in` and returns the new node's ID.
func (b *Builder) Layer(in int, l Layer) int {
	b.check(in)
	n := &Node{ID: len(b.nodes), Kind: KindLayer, Layer: l, In: []int{in}}
	b.nodes = append(b.nodes, n)
	return n.ID
}

// Chain adds several layers in sequence and returns the last node's ID.
func (b *Builder) Chain(in int, layers ...Layer) int {
	id := in
	for _, l := range layers {
		id = b.Layer(id, l)
	}
	return id
}

// Add sums two nodes elementwise; relu applies ReLU to the result.
func (b *Builder) Add(a, c int, relu bool) int {
	b.check(a)
	b.check(c)
	n := &Node{ID: len(b.nodes), Kind: KindAdd, In: []int{a, c}, ReLUAfterAdd: relu}
	b.nodes = append(b.nodes, n)
	return n.ID
}

func (b *Builder) check(id int) {
	if id < 0 || id >= len(b.nodes) {
		panic(fmt.Sprintf("nn: builder references unknown node %d", id))
	}
}

// Build finalizes the network with the given output node.
func (b *Builder) Build(out int) *Network {
	b.check(out)
	net := &Network{Nodes: b.nodes, OutID: out}
	for _, n := range b.nodes {
		if n.Kind == KindInput {
			net.inputs = append(net.inputs, n.ID)
		}
	}
	if len(net.inputs) != 1 {
		panic(fmt.Sprintf("nn: network must have exactly one input, got %d", len(net.inputs)))
	}
	return net
}

// Forward runs the network on a batch and returns the output tensor.
// Intermediate node outputs remain accessible via Node.Out until the next
// Forward call.
func (net *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, n := range net.Nodes {
		switch n.Kind {
		case KindInput:
			n.out = x
		case KindLayer:
			n.out = n.Layer.Forward(net.Nodes[n.In[0]].out, train)
		case KindAdd:
			a := net.Nodes[n.In[0]].out
			c := net.Nodes[n.In[1]].out
			sum := a.Add(c)
			if n.ReLUAfterAdd {
				if cap(n.reluMask) < len(sum.Data) {
					n.reluMask = make([]bool, len(sum.Data))
				}
				n.reluMask = n.reluMask[:len(sum.Data)]
				for i, v := range sum.Data {
					if v > 0 {
						n.reluMask[i] = true
					} else {
						n.reluMask[i] = false
						sum.Data[i] = 0
					}
				}
			}
			n.out = sum
		}
	}
	return net.Nodes[net.OutID].out
}

// Backward propagates gradOut (gradient w.r.t. the network output) through
// the graph, accumulating parameter gradients, and returns the gradient
// w.r.t. the network input.
func (net *Network) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	for _, n := range net.Nodes {
		n.grad = nil
	}
	net.Nodes[net.OutID].grad = gradOut
	for i := len(net.Nodes) - 1; i >= 0; i-- {
		n := net.Nodes[i]
		if n.grad == nil {
			continue // node not on a path to the output
		}
		switch n.Kind {
		case KindInput:
			// done; grad available below
		case KindLayer:
			g := n.Layer.Backward(n.grad)
			net.accumulate(n.In[0], g)
		case KindAdd:
			g := n.grad
			if n.ReLUAfterAdd {
				masked := tensor.New(g.Shape()...)
				for i, v := range g.Data {
					if n.reluMask[i] {
						masked.Data[i] = v
					}
				}
				g = masked
			}
			net.accumulate(n.In[0], g)
			net.accumulate(n.In[1], g.Clone())
		}
	}
	in := net.Nodes[net.inputs[0]]
	if in.grad == nil {
		in.grad = tensor.New(in.out.Shape()...)
	}
	return in.grad
}

func (net *Network) accumulate(id int, g *tensor.Tensor) {
	dst := net.Nodes[id]
	if dst.grad == nil {
		dst.grad = g
	} else {
		dst.grad.AddInPlace(g)
	}
}

// Params returns all trainable parameters in the network.
func (net *Network) Params() []*Param {
	var ps []*Param
	for _, n := range net.Nodes {
		if n.Kind == KindLayer {
			ps = append(ps, n.Layer.Params()...)
		}
	}
	return ps
}

// ZeroGrads clears all parameter gradients.
func (net *Network) ZeroGrads() { ZeroGrads(net.Params()) }

// NumParams returns the total number of weights (including masked zeros).
func (net *Network) NumParams() int {
	total := 0
	for _, p := range net.Params() {
		total += p.W.Size()
	}
	return total
}

// NNZParams returns the number of nonzero weights (the sparse footprint).
func (net *Network) NNZParams() int {
	total := 0
	for _, p := range net.Params() {
		total += p.W.NNZ(0)
	}
	return total
}

// Layers returns the layers in topological order.
func (net *Network) Layers() []Layer {
	var ls []Layer
	for _, n := range net.Nodes {
		if n.Kind == KindLayer {
			ls = append(ls, n.Layer)
		}
	}
	return ls
}
