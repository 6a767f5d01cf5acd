// Package models defines an architecture IR for the CNNs the paper attacks
// (VGG-S, ResNet-18) and its baselines (AlexNet, MobileNetV2), plus builders
// that turn an Arch into a runnable nn.Network.
//
// The Arch IR is the ground truth the attacker tries to recover: each Unit
// corresponds to one accelerator execution step (one layerwise pass whose
// tensors all visit DRAM), which is exactly the granularity the DRAM trace
// exposes.
package models

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/huffduff/huffduff/internal/nn"
	"github.com/huffduff/huffduff/internal/tensor"
)

// UnitKind is the type of an accelerator execution unit.
type UnitKind int

// Unit kinds.
const (
	// UnitConv is conv (+BN) (+ReLU) (+maxpool) executed as one layerwise
	// pass; BN/ReLU/pool live in the post-processing module.
	UnitConv UnitKind = iota
	// UnitAdd is an elementwise residual sum (+ReLU).
	UnitAdd
	// UnitAvgPool is an average-pool pass (ResNet's global pool).
	UnitAvgPool
	// UnitLinear is a fully connected pass (input flattened implicitly).
	UnitLinear
)

// InputID is the pseudo-unit index denoting the network input.
const InputID = -1

// Unit describes one execution unit. In refers to producing units by index
// (InputID for the network input).
type Unit struct {
	Kind UnitKind
	Name string
	In   []int

	// Conv fields.
	OutC   int
	Kernel int
	Stride int
	Pool   int // maxpool window fused into post-processing; 1 = none
	Groups int // 0 or 1 = dense conv; OutC = depthwise
	BN     bool
	ReLU   bool
	Bias   bool
}

// Arch is a complete architecture description.
type Arch struct {
	Name       string
	InC        int
	InH, InW   int
	NumClasses int
	Units      []Unit
}

// Validate checks structural invariants: topological in-order references and
// consistent channel counts. It returns the inferred per-unit output channel
// count (or flattened feature count for linear units).
func (a *Arch) Validate() error {
	if a.InC <= 0 || a.InH <= 0 || a.InW <= 0 {
		return fmt.Errorf("models: %s: invalid input dims %dx%dx%d", a.Name, a.InC, a.InH, a.InW)
	}
	for i, u := range a.Units {
		if len(u.In) == 0 {
			return fmt.Errorf("models: %s unit %d (%s): no inputs", a.Name, i, u.Name)
		}
		for _, in := range u.In {
			if in != InputID && (in < 0 || in >= i) {
				return fmt.Errorf("models: %s unit %d (%s): bad input ref %d", a.Name, i, u.Name, in)
			}
		}
		switch u.Kind {
		case UnitConv:
			if u.Kernel < 1 || u.Stride < 1 || u.Pool < 1 || u.OutC < 1 {
				return fmt.Errorf("models: %s unit %d (%s): bad conv geometry %+v", a.Name, i, u.Name, u)
			}
			if len(u.In) != 1 {
				return fmt.Errorf("models: %s unit %d (%s): conv takes one input", a.Name, i, u.Name)
			}
		case UnitAdd:
			if len(u.In) != 2 {
				return fmt.Errorf("models: %s unit %d (%s): add takes two inputs", a.Name, i, u.Name)
			}
		case UnitAvgPool:
			if u.Pool < 1 || len(u.In) != 1 {
				return fmt.Errorf("models: %s unit %d (%s): bad avgpool", a.Name, i, u.Name)
			}
		case UnitLinear:
			if u.OutC < 1 || len(u.In) != 1 {
				return fmt.Errorf("models: %s unit %d (%s): bad linear", a.Name, i, u.Name)
			}
		}
	}
	return nil
}

// UnitShape is the output tensor geometry of a unit.
type UnitShape struct {
	C, H, W int  // spatial output (after pool) for conv/add/avgpool
	Flat    bool // true for linear outputs (C = features, H = W = 1)
}

// Shapes infers every unit's output shape by propagating the input geometry.
func (a *Arch) Shapes() ([]UnitShape, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	shapes := make([]UnitShape, len(a.Units))
	get := func(id int) UnitShape {
		if id == InputID {
			return UnitShape{C: a.InC, H: a.InH, W: a.InW}
		}
		return shapes[id]
	}
	for i, u := range a.Units {
		in := get(u.In[0])
		switch u.Kind {
		case UnitConv:
			pad := nn.SamePad(u.Kernel)
			h := (in.H+2*pad-u.Kernel)/u.Stride + 1
			w := (in.W+2*pad-u.Kernel)/u.Stride + 1
			h /= u.Pool
			w /= u.Pool
			if h < 1 || w < 1 {
				return nil, fmt.Errorf("models: %s unit %d (%s): geometry collapses to %dx%d", a.Name, i, u.Name, h, w)
			}
			shapes[i] = UnitShape{C: u.OutC, H: h, W: w}
		case UnitAdd:
			other := get(u.In[1])
			if in != other {
				return nil, fmt.Errorf("models: %s unit %d (%s): add shape mismatch %+v vs %+v", a.Name, i, u.Name, in, other)
			}
			shapes[i] = in
		case UnitAvgPool:
			shapes[i] = UnitShape{C: in.C, H: in.H / u.Pool, W: in.W / u.Pool}
		case UnitLinear:
			shapes[i] = UnitShape{C: u.OutC, H: 1, W: 1, Flat: true}
		}
	}
	return shapes, nil
}

// groups returns the effective group count of a conv unit.
func (u Unit) groups() int {
	if u.Groups <= 1 {
		return 1
	}
	return u.Groups
}

// Binding maps Arch units to the layers and nodes of the built nn.Network:
// the accelerator simulator reads each unit's parameters, and UnitTensor and
// PsumOut read a forward pass's per-unit tensors.
type Binding struct {
	Net *nn.Network
	// UnitOut[i] is the network node whose Out() is unit i's tensor as
	// written to DRAM (post BN/ReLU/pool for conv units).
	UnitOut []int
	// PsumNode[i] is the node holding the dense partial sums of unit i
	// (the raw conv / linear output before post-processing); -1 for units
	// without psums (add, avgpool).
	PsumNode []int
	// Conv[i] is the conv layer of unit i (nil for non-conv units), BN[i]
	// its batch norm (nil without one) and FC[i] the linear layer (nil
	// otherwise), for parameter access.
	Conv []*nn.Conv2D
	BN   []*nn.BatchNorm2D
	FC   []*nn.Linear
}

// Build constructs a runnable network with freshly initialized weights.
func (a *Arch) Build(rng *rand.Rand) (*Binding, error) {
	shapes, err := a.Shapes()
	if err != nil {
		return nil, err
	}
	b := nn.NewBuilder()
	input := b.Input()
	bind := &Binding{
		UnitOut:  make([]int, len(a.Units)),
		PsumNode: make([]int, len(a.Units)),
		Conv:     make([]*nn.Conv2D, len(a.Units)),
		BN:       make([]*nn.BatchNorm2D, len(a.Units)),
		FC:       make([]*nn.Linear, len(a.Units)),
	}
	node := func(id int) int {
		if id == InputID {
			return input
		}
		return bind.UnitOut[id]
	}
	chanOf := func(id int) int {
		if id == InputID {
			return a.InC
		}
		return shapes[id].C
	}
	for i, u := range a.Units {
		switch u.Kind {
		case UnitConv:
			inC := chanOf(u.In[0])
			conv := nn.NewConv2D(rng, inC, u.OutC, u.Kernel, u.Stride, nn.SamePad(u.Kernel), u.groups(), u.Bias)
			bind.Conv[i] = conv
			id := b.Layer(node(u.In[0]), conv)
			bind.PsumNode[i] = id
			if u.BN {
				bind.BN[i] = nn.NewBatchNorm2D(u.OutC)
				id = b.Layer(id, bind.BN[i])
			}
			if u.ReLU {
				id = b.Layer(id, nn.NewReLU())
			}
			if u.Pool > 1 {
				id = b.Layer(id, nn.NewMaxPool2D(u.Pool))
			}
			bind.UnitOut[i] = id
		case UnitAdd:
			bind.PsumNode[i] = -1
			bind.UnitOut[i] = b.Add(node(u.In[0]), node(u.In[1]), u.ReLU)
		case UnitAvgPool:
			bind.PsumNode[i] = -1
			bind.UnitOut[i] = b.Layer(node(u.In[0]), nn.NewAvgPool2D(u.Pool))
		case UnitLinear:
			inShape := UnitShape{C: a.InC, H: a.InH, W: a.InW}
			if u.In[0] != InputID {
				inShape = shapes[u.In[0]]
			}
			id := node(u.In[0])
			features := inShape.C
			if !inShape.Flat {
				features = inShape.C * inShape.H * inShape.W
				id = b.Layer(id, nn.NewFlatten())
			}
			fc := nn.NewLinear(rng, features, u.OutC)
			bind.FC[i] = fc
			id = b.Layer(id, fc)
			bind.PsumNode[i] = id
			if u.ReLU {
				id = b.Layer(id, nn.NewReLU())
			}
			bind.UnitOut[i] = id
		}
	}
	bind.Net = b.Build(bind.UnitOut[len(a.Units)-1])
	return bind, nil
}

// PsumOut returns the dense partial-sum tensor of unit i from the last
// forward pass, or nil if the unit has no psums.
func (bd *Binding) PsumOut(i int) *tensor.Tensor {
	if bd.PsumNode[i] < 0 {
		return nil
	}
	return bd.Net.Nodes[bd.PsumNode[i]].Out()
}

// UnitTensor returns unit i's output tensor as written to DRAM in the last
// forward pass.
func (bd *Binding) UnitTensor(i int) *tensor.Tensor {
	return bd.Net.Nodes[bd.UnitOut[i]].Out()
}

// ConvUnits returns the indices of conv units in execution order.
func (a *Arch) ConvUnits() []int {
	var ids []int
	for i, u := range a.Units {
		if u.Kind == UnitConv {
			ids = append(ids, i)
		}
	}
	return ids
}

// WeightCount returns the total number of weight elements in conv and
// linear units (excluding BN affine and biases), the quantity pruning
// factors are quoted against.
func (a *Arch) WeightCount() (int, error) {
	shapes, err := a.Shapes()
	if err != nil {
		return 0, err
	}
	total := 0
	for i, u := range a.Units {
		inC := a.InC
		if u.In[0] != InputID {
			inC = shapes[u.In[0]].C
		}
		switch u.Kind {
		case UnitConv:
			total += u.OutC * (inC / u.groups()) * u.Kernel * u.Kernel
		case UnitLinear:
			f := a.InC * a.InH * a.InW
			if u.In[0] != InputID {
				in := shapes[u.In[0]]
				f = in.C
				if !in.Flat {
					f = in.C * in.H * in.W
				}
			}
			total += u.OutC * f
		}
		_ = i
	}
	return total, nil
}

// String renders a one-line-per-unit summary.
func (a *Arch) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%dx%dx%d -> %d classes)\n", a.Name, a.InC, a.InH, a.InW, a.NumClasses)
	for i, u := range a.Units {
		switch u.Kind {
		case UnitConv:
			fmt.Fprintf(&sb, "  %2d %-10s conv k=%d s=%d pool=%d outC=%d g=%d in=%v\n", i, u.Name, u.Kernel, u.Stride, u.Pool, u.OutC, u.groups(), u.In)
		case UnitAdd:
			fmt.Fprintf(&sb, "  %2d %-10s add relu=%v in=%v\n", i, u.Name, u.ReLU, u.In)
		case UnitAvgPool:
			fmt.Fprintf(&sb, "  %2d %-10s avgpool %d in=%v\n", i, u.Name, u.Pool, u.In)
		case UnitLinear:
			fmt.Fprintf(&sb, "  %2d %-10s fc out=%d in=%v\n", i, u.Name, u.OutC, u.In)
		}
	}
	return sb.String()
}
