package lint

import (
	"go/ast"
)

// NoallocFlow extends the per-function noalloc contract across call
// boundaries: every function transitively reachable from an
// //atm:noalloc root — through direct calls, concrete and
// interface-dispatched method calls, and closure / method-value
// creation — must itself be one of
//
//   - annotated //atm:noalloc (so the per-package noalloc analyzer
//     checks its body and this analyzer keeps traversing),
//   - waived at the call site or caller with
//     //atm:allow noallocflow -- <why>, or
//   - a proven alloc-free leaf: its body passes the noalloc scan, it
//     performs no dynamic calls, and everything it calls is itself a
//     proven leaf, an annotated function, or a known alloc-free
//     stdlib function.
//
// Without this pass an annotated hot loop could call an unannotated
// allocating helper — in the same package or another one — and the
// body-local analyzer would never see it.
var NoallocFlow = &FlowAnalyzer{
	Name: "noallocflow",
	Doc:  "require every function reachable from an //atm:noalloc root to be annotated, waived, or a proven alloc-free leaf",
	Run:  runNoallocFlow,
}

// safeExternalPkgs are stdlib packages whose exported functions and
// methods never heap-allocate: pure math and lock-free atomics.
var safeExternalPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// safeExternalFuncs are individually vetted alloc-free stdlib
// functions, keyed by qualified name.
var safeExternalFuncs = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.Mutex).Unlock":  true,
	"(*sync.Mutex).TryLock": true,
	"sort.Search":           true,
	"sort.SearchInts":       true,
	"sort.SearchFloat64s":   true,
}

func safeExternal(n *Node) bool {
	if n.Obj == nil {
		return false
	}
	if n.Obj.Pkg() != nil && safeExternalPkgs[n.Obj.Pkg().Path()] {
		return true
	}
	return safeExternalFuncs[n.Name()]
}

type leafVerdict int8

const (
	leafUnknown leafVerdict = iota
	leafVisiting
	leafYes
	leafNo
)

type noallocFlowState struct {
	pass  *FlowPass
	leafs map[*Node]leafVerdict
}

func runNoallocFlow(pass *FlowPass) error {
	g := pass.Graph
	st := &noallocFlowState{pass: pass, leafs: make(map[*Node]leafVerdict)}

	// Roots: every annotated function or literal, in node order.
	rootOf := make(map[*Node]*Node)
	var queue []*Node
	for _, n := range g.Nodes {
		if n.Pkg == nil || g.InTestFile(n) {
			continue
		}
		if hasDirective(n, KindNoalloc) {
			rootOf[n] = n
			queue = append(queue, n)
		}
	}

	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		root := rootOf[n]
		for _, e := range n.Out {
			c := e.To
			if c == n {
				continue // direct recursion
			}
			if c.Pkg == nil { // external
				if !safeExternal(c) && !allowedAt(n, RuleNoallocFlow, e.Pos) {
					pass.Reportf(e.Pos, "atm:noallocflow: %s calls %s, which is outside the module and not on the known alloc-free list; hot paths reachable from //atm:noalloc root %s must not allocate (waive with //atm:allow noallocflow -- why)", n.Name(), c.Name(), root.Name())
				}
				continue
			}
			if g.InTestFile(c) {
				continue
			}
			if hasDirective(c, KindNoalloc) {
				if _, seen := rootOf[c]; !seen {
					rootOf[c] = root
					queue = append(queue, c)
				}
				continue
			}
			if e.Kind == EdgeClosure {
				// An unannotated literal inside a noalloc body is already
				// flagged by the per-package noalloc analyzer at the same
				// position; a second report here would be noise.
				continue
			}
			if allowedAt(n, RuleNoallocFlow, e.Pos) {
				continue
			}
			if st.leafClean(c) {
				continue
			}
			kind := "call to"
			if e.Kind == EdgeFuncValue {
				kind = "reference to"
			} else if e.Kind == EdgeInterface {
				kind = "interface-dispatched call to"
			}
			pass.Reportf(e.Pos, "atm:noallocflow: %s %s (reachable from //atm:noalloc root %s), which is neither //atm:noalloc, waived (//atm:allow noallocflow -- why), nor a provable alloc-free leaf", kind, c.Name(), root.Name())
		}
	}
	return nil
}

// leafClean proves, memoized, that a function is alloc-free without an
// annotation: its body passes the noalloc scan, it makes no dynamic
// calls, and every callee is safe, annotated, or itself a clean leaf.
// Cycles are rejected — a recursive group must be annotated to vouch
// for itself.
func (st *noallocFlowState) leafClean(n *Node) bool {
	switch st.leafs[n] {
	case leafYes:
		return true
	case leafNo, leafVisiting:
		return false
	}
	st.leafs[n] = leafVisiting
	ok := st.proveLeaf(n)
	if ok {
		st.leafs[n] = leafYes
	} else {
		st.leafs[n] = leafNo
	}
	return ok
}

func (st *noallocFlowState) proveLeaf(n *Node) bool {
	if n.Pkg == nil || n.Decl == nil || n.Dynamic {
		return false
	}
	body := funcBody(n.Decl)
	if body == nil {
		return false // declaration without body (assembly or external linkage)
	}
	// Body must pass the same scan //atm:noalloc bodies get.
	scratch := &Pass{
		Fset:      st.pass.Graph.Fset,
		TypesInfo: n.Pkg.Info,
		Dirs:      n.Pkg.Dirs,
	}
	checkNoalloc(scratch, n.Decl)
	if len(scratch.diagnostics) > 0 {
		return false
	}
	for _, e := range n.Out {
		c := e.To
		if c == n {
			continue
		}
		if c.Pkg == nil {
			if !safeExternal(c) {
				return false
			}
			continue
		}
		if hasDirective(c, KindNoalloc) {
			continue
		}
		if !st.leafClean(c) {
			return false
		}
	}
	return true
}

func funcBody(decl ast.Node) *ast.BlockStmt {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return d.Body
	case *ast.FuncLit:
		return d.Body
	}
	return nil
}
