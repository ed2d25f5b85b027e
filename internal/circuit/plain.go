package circuit

import (
	"fmt"

	"sqm/internal/field"
)

// Plain evaluates the plan directly over field elements — no sharing,
// no communication — walking the recorded IR in record order, apart
// from the level schedule and the slot assignment the engines run.
// Because BGW computes exactly, the opened values are bit-identical to
// every MPC execution of the same plan; this is the
// differential-testing oracle and the fast path for utility
// experiments. Plans with external vectors (ExtVec) cannot run plain:
// those handles are engine share state.
func (p *Plan) Plain(bind Bindings) (*Result, error) {
	if len(p.extLens) > 0 {
		return nil, fmt.Errorf("circuit: plan has %d external bindings; Plain needs a self-contained circuit", len(p.extLens))
	}
	if err := p.validate(bind); err != nil {
		return nil, err
	}
	vals := make([]field.Elem, len(p.nodes))
	vecs := make([][]field.Elem, len(p.nodes))
	r := &Result{plan: p}
	for id, n := range p.nodes {
		switch n.kind {
		case kZero:
			vals[id] = 0
		case kInput:
			vals[id] = p.lits[n.b]
		case kInputVec:
			vecs[id] = append([]field.Elem(nil), p.lits[n.b:n.b+n.n]...)
		case kInputParam:
			vals[id] = field.FromInt64(bind.Inputs[n.b])
		case kInputVecParam:
			vs := bind.InputVecs[n.b]
			v := make([]field.Elem, len(vs))
			for k, x := range vs {
				v[k] = field.FromInt64(x)
			}
			vecs[id] = v
		case kAdd:
			vals[id] = field.Add(vals[n.a], vals[n.b])
		case kSub:
			vals[id] = field.Sub(vals[n.a], vals[n.b])
		case kAddConst:
			vals[id] = field.Add(vals[n.a], p.lits[n.b])
		case kMulConst:
			vals[id] = field.Mul(vals[n.a], p.lits[n.b])
		case kAddConstP:
			vals[id] = field.Add(vals[n.a], field.FromInt64(bind.Consts[n.b]))
		case kMulConstP:
			vals[id] = field.Mul(vals[n.a], field.FromInt64(bind.Consts[n.b]))
		case kMul:
			vals[id] = field.Mul(vals[n.a], vals[n.b])
		case kInner:
			as, bs := p.args[n.b:n.b+n.n], p.args[n.b+n.n:n.b+2*n.n]
			var acc field.Elem
			for i := range as {
				acc = field.Add(acc, field.Mul(vals[as[i]], vals[bs[i]]))
			}
			vals[id] = acc
		case kDot:
			va, vb := vecs[n.a], vecs[n.b]
			var acc field.Elem
			for k := range va {
				acc = field.Add(acc, field.Mul(va[k], vb[k]))
			}
			vals[id] = acc
		case kAt:
			vals[id] = vecs[n.a][n.b]
		case kAtIndex:
			vals[id] = vecs[n.a][bind.Indices[n.b]]
		case kAddVec:
			va, vb := vecs[n.a], vecs[n.b]
			out := make([]field.Elem, len(va))
			for k := range out {
				out[k] = field.Add(va[k], vb[k])
			}
			vecs[id] = out
		case kFromScalars:
			out := make([]field.Elem, n.n)
			for k, op := range p.args[n.b : n.b+n.n] {
				out[k] = vals[op]
			}
			vecs[id] = out
		case kOpen:
			r.opened = append(r.opened, field.ToInt64(vals[n.a]))
		case kOpenVec:
			src := vecs[n.a]
			out := make([]int64, len(src))
			for k, v := range src {
				out[k] = field.ToInt64(v)
			}
			r.openedVecs = append(r.openedVecs, out)
		default:
			return nil, fmt.Errorf("circuit: unknown node kind %d", n.kind)
		}
	}
	return r, nil
}
