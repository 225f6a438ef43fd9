package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// This file builds the static call graph the interprocedural (flow)
// analyzers run on. The graph spans every loaded package of the module
// at once — unlike the per-package passes, an edge may cross a package
// boundary — and approximates dynamic dispatch conservatively:
//
//   - direct calls and concrete method calls are static edges;
//   - interface method calls fan out to every method of every named
//     type in the loaded packages whose method set satisfies the
//     interface (method-set membership, not points-to analysis);
//   - closures and method values are edged at their *creation* site:
//     referencing a FuncLit or taking x.M as a value adds an edge from
//     the enclosing function to the defining FuncLit/FuncDecl, so a
//     callback is charged to the function that built it, not to the
//     engine that later invokes it through a func-typed parameter;
//   - calls to generic functions and methods edge to the generic
//     origin declaration (one node covers all instantiations);
//   - calls through func-typed variables, parameters, and fields have
//     no nameable target; they mark the caller Dynamic, which is
//     enough for leaf proving to refuse to vouch for it.
//
// The approximation is sound for reachability in the direction the
// analyzers need (it may add edges that never execute, never misses a
// statically visible one) with two documented caveats: an interface
// implementation outside the loaded package set is invisible, and a
// func value received from outside the module is untracked. See
// DESIGN.md §12.

// A GraphPackage is one loaded, type-checked package presented to the
// graph builder. The loader (LoadPackages) and the linttest fixture
// harness both produce these.
type GraphPackage struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Dirs  *Directives
}

// EdgeKind classifies how a call-graph edge arises.
type EdgeKind string

const (
	// EdgeCall is a direct call of a named function or concrete method.
	EdgeCall EdgeKind = "call"
	// EdgeInterface is a dispatch approximation: the callee is one of
	// the method-set implementations of an interface method.
	EdgeInterface EdgeKind = "iface"
	// EdgeClosure links a function to a func literal it creates.
	EdgeClosure EdgeKind = "closure"
	// EdgeFuncValue links a function to a named function or method it
	// references as a value (method value, func passed as argument).
	EdgeFuncValue EdgeKind = "funcval"
)

// An Edge is one caller→callee relation, anchored at the source
// position that induced it.
type Edge struct {
	From *Node
	To   *Node
	Pos  token.Pos
	Kind EdgeKind
}

// A Node is one function in the graph: a declared function or method,
// a func literal, or an external (out-of-module) function referenced
// by loaded code.
type Node struct {
	// Pkg is the owning loaded package; nil for external nodes.
	Pkg *GraphPackage
	// Decl is the *ast.FuncDecl or *ast.FuncLit; nil for external nodes.
	Decl ast.Node
	// Obj is the type-checker object; nil for func literals.
	Obj *types.Func
	// Parent is the enclosing function node for func literals.
	Parent *Node
	// Out lists the outgoing edges in source order.
	Out []Edge
	// Dynamic records that the function calls through a func-typed
	// value the graph cannot resolve to a declaration.
	Dynamic bool

	name string
}

// External reports whether the node is outside the loaded package set.
func (n *Node) External() bool { return n.Pkg == nil }

// Name returns the stable, package-qualified display name:
// "repro/internal/tasks.scanTableBatch", "(*repro/internal/broadphase.Sweep).Build",
// "repro/internal/tasks.correlateParallel.func1" for literals.
func (n *Node) Name() string { return n.name }

// A Graph is the whole-module static call graph.
type Graph struct {
	Fset     *token.FileSet
	Packages []*GraphPackage
	// Nodes lists every node: loaded ones first in (package, position)
	// order, then externals sorted by name.
	Nodes []*Node

	byDecl map[ast.Node]*Node
	byObj  map[*types.Func]*Node
	ext    map[*types.Func]*Node
	impls  map[*types.Func][]*Node // interface method -> implementations
	named  []types.Type            // all named non-interface types, for dispatch
}

// NodeFor returns the node for a FuncDecl or FuncLit, or nil.
func (g *Graph) NodeFor(decl ast.Node) *Node { return g.byDecl[decl] }

// NodeForObj returns the node for a declared function object, or nil.
func (g *Graph) NodeForObj(obj *types.Func) *Node { return g.byObj[origin(obj)] }

// BuildGraph constructs the call graph over the loaded packages.
func BuildGraph(fset *token.FileSet, pkgs []*GraphPackage) *Graph {
	g := &Graph{
		Fset:     fset,
		Packages: pkgs,
		byDecl:   make(map[ast.Node]*Node),
		byObj:    make(map[*types.Func]*Node),
		ext:      make(map[*types.Func]*Node),
		impls:    make(map[*types.Func][]*Node),
	}
	g.collectNamedTypes()
	g.indexDecls()
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			g.walkFile(pkg, f)
		}
	}
	g.finalize()
	return g
}

// collectNamedTypes gathers every named, non-interface type declared in
// the loaded packages; these are the dispatch candidates for interface
// method calls.
func (g *Graph) collectNamedTypes() {
	for _, pkg := range g.Packages {
		if pkg.Pkg == nil {
			continue
		}
		scope := pkg.Pkg.Scope()
		names := scope.Names() // already sorted
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if _, isIface := t.Underlying().(*types.Interface); isIface {
				continue
			}
			g.named = append(g.named, t)
		}
	}
}

// indexDecls creates a node per function declaration.
func (g *Graph) indexDecls() {
	for _, pkg := range g.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				n := &Node{Pkg: pkg, Decl: fd, Obj: obj, name: declName(pkg, obj, fd)}
				g.byDecl[fd] = n
				if obj != nil {
					g.byObj[obj] = n
				}
				g.Nodes = append(g.Nodes, n)
			}
		}
	}
}

func declName(pkg *GraphPackage, obj *types.Func, fd *ast.FuncDecl) string {
	if obj != nil {
		return qualifiedName(obj)
	}
	return pkg.Path + "." + fd.Name.Name
}

// qualifiedName renders a *types.Func with its full package path:
// "path.Func" or "(path.T).M" / "(*path.T).M".
func qualifiedName(obj *types.Func) string {
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		if obj.Pkg() == nil {
			return obj.Name()
		}
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return "(" + types.TypeString(sig.Recv().Type(), nil) + ")." + obj.Name()
}

// walkFile resolves every call, func-literal, and function-value
// reference in one file into edges.
func (g *Graph) walkFile(pkg *GraphPackage, file *ast.File) {
	// callFun marks expressions consumed as the Fun of a CallExpr so
	// the identifier walk below does not double-report them as values.
	callFun := make(map[ast.Expr]bool)
	// selSel marks the Sel identifier of every SelectorExpr; selector
	// references are handled at the SelectorExpr level.
	selSel := make(map[*ast.Ident]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callFun[unwrapFun(n.Fun)] = true
		case *ast.SelectorExpr:
			selSel[n.Sel] = true
		}
		return true
	})

	// litCount numbers func literals compiler-style within each
	// top-level declaration: Decl.func1, Decl.func2, ...
	var enclosing []*Node
	var litCount int

	push := func(n *Node) { enclosing = append(enclosing, n) }
	cur := func() *Node {
		if len(enclosing) == 0 {
			return nil
		}
		return enclosing[len(enclosing)-1]
	}

	var nodes []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			last := nodes[len(nodes)-1]
			nodes = nodes[:len(nodes)-1]
			switch last.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				enclosing = enclosing[:len(enclosing)-1]
			}
			return true
		}
		nodes = append(nodes, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			litCount = 0
			push(g.byDecl[n])

		case *ast.FuncLit:
			parent := cur()
			litCount++
			name := pkg.Path + ".glob"
			if parent != nil {
				name = parent.Name()
			}
			lit := &Node{
				Pkg:    pkg,
				Decl:   n,
				Parent: parent,
				name:   fmt.Sprintf("%s.func%d", name, litCount),
			}
			g.byDecl[n] = lit
			g.Nodes = append(g.Nodes, lit)
			if parent != nil {
				parent.Out = append(parent.Out, Edge{From: parent, To: lit, Pos: n.Pos(), Kind: EdgeClosure})
			}
			push(lit)

		case *ast.CallExpr:
			g.resolveCall(pkg, cur(), n)

		case *ast.SelectorExpr:
			if callFun[n] {
				return true // handled by resolveCall
			}
			if from := cur(); from != nil {
				if sel, ok := pkg.Info.Selections[n]; ok &&
					(sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr) {
					if m, ok := sel.Obj().(*types.Func); ok {
						g.addCallee(pkg, from, m, sel.Recv(), n.Pos(), EdgeFuncValue)
					}
				} else if m, ok := pkg.Info.Uses[n.Sel].(*types.Func); ok {
					// qualified reference to another package's function
					g.addEdge(pkg, from, m, n.Pos(), EdgeFuncValue)
				}
			}

		case *ast.Ident:
			if callFun[n] || selSel[n] {
				return true
			}
			from := cur()
			if from == nil {
				return true
			}
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
				// A bare identifier naming a function, used as a value.
				g.addEdge(pkg, from, fn, n.Pos(), EdgeFuncValue)
			}
		}
		return true
	})
}

// unwrapFun strips parens and generic instantiation indices from a
// call's Fun expression: (f[int]) -> f.
func unwrapFun(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return ast.Unparen(e)
		}
	}
}

// resolveCall turns one call expression into edges from the enclosing
// function node.
func (g *Graph) resolveCall(pkg *GraphPackage, from *Node, call *ast.CallExpr) {
	if from == nil {
		return
	}
	fun := unwrapFun(call.Fun)

	// Type conversion, not a call.
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}

	switch fn := fun.(type) {
	case *ast.FuncLit:
		// Immediately-invoked literal: the closure edge is added when
		// the literal itself is visited; nothing more to record.
		return
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fn].(type) {
		case *types.Func:
			g.addEdge(pkg, from, obj, call.Pos(), EdgeCall)
			return
		case *types.Builtin:
			return
		case *types.Var:
			// Call through a func-typed variable or parameter. If it is
			// a closure the creation-site edge already covers it;
			// otherwise the target is unknowable statically.
			from.Dynamic = true
			return
		case nil:
			// Defs (rare: recursive reference inside its own decl).
			if o, ok := pkg.Info.Defs[fn].(*types.Func); ok {
				g.addEdge(pkg, from, o, call.Pos(), EdgeCall)
				return
			}
		}
		from.Dynamic = true
		return
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fn]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				if m, ok := sel.Obj().(*types.Func); ok {
					g.addCallee(pkg, from, m, sel.Recv(), call.Pos(), EdgeCall)
					return
				}
			case types.FieldVal:
				from.Dynamic = true // func-typed struct field
				return
			}
		}
		// Package-qualified call: pkg.F().
		if m, ok := pkg.Info.Uses[fn.Sel].(*types.Func); ok {
			g.addEdge(pkg, from, m, call.Pos(), EdgeCall)
			return
		}
		from.Dynamic = true
		return
	}
	from.Dynamic = true
}

// addCallee adds the edge(s) for a method reference: a static edge for
// a concrete receiver, dispatch-approximation edges for an interface
// receiver.
func (g *Graph) addCallee(pkg *GraphPackage, from *Node, m *types.Func, recv types.Type, pos token.Pos, kind EdgeKind) {
	if recv != nil {
		if _, isIface := recv.Underlying().(*types.Interface); isIface {
			for _, impl := range g.implementations(m) {
				from.Out = append(from.Out, Edge{From: from, To: impl, Pos: pos, Kind: EdgeInterface})
			}
			return
		}
	}
	g.addEdge(pkg, from, m, pos, kind)
}

// addEdge records a static edge to a declared function, resolving
// generic instantiations to their origin declaration and creating an
// external node when the callee is outside the loaded set.
func (g *Graph) addEdge(pkg *GraphPackage, from *Node, callee *types.Func, pos token.Pos, kind EdgeKind) {
	to := g.nodeForFunc(callee)
	from.Out = append(from.Out, Edge{From: from, To: to, Pos: pos, Kind: kind})
}

func origin(obj *types.Func) *types.Func {
	if o := obj.Origin(); o != nil {
		return o
	}
	return obj
}

// nodeForFunc resolves a function object to its node, minting an
// external node on first reference to an out-of-module function.
func (g *Graph) nodeForFunc(callee *types.Func) *Node {
	callee = origin(callee)
	if n, ok := g.byObj[callee]; ok {
		return n
	}
	if n, ok := g.ext[callee]; ok {
		return n
	}
	n := &Node{Obj: callee, name: qualifiedName(callee)}
	g.ext[callee] = n
	return n
}

// implementations returns, memoized, the loaded-package methods that
// satisfy the given interface method, sorted by name.
func (g *Graph) implementations(m *types.Func) []*Node {
	m = origin(m)
	if impls, ok := g.impls[m]; ok {
		return impls
	}
	var out []*Node
	sig, _ := m.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		g.impls[m] = nil
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface == nil {
		g.impls[m] = nil
		return nil
	}
	seen := make(map[*Node]bool)
	for _, t := range g.named {
		for _, recv := range []types.Type{t, types.NewPointer(t)} {
			if !types.Implements(recv, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			n := g.nodeForFunc(fn)
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	g.impls[m] = out
	return out
}

// finalize orders Nodes deterministically: loaded nodes by (package
// path, file, offset), then external nodes by name.
func (g *Graph) finalize() {
	var ext []*Node
	for _, n := range g.ext {
		ext = append(ext, n)
	}
	sort.Slice(ext, func(i, j int) bool { return ext[i].name < ext[j].name })
	sort.SliceStable(g.Nodes, func(i, j int) bool {
		a, b := g.Nodes[i], g.Nodes[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		pa, pb := g.Fset.Position(a.Decl.Pos()), g.Fset.Position(b.Decl.Pos())
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		return pa.Offset < pb.Offset
	})
	g.Nodes = append(g.Nodes, ext...)
}

// FuncStack returns the enclosing function AST nodes of n (outermost
// first, ending at n itself), for directive scope lookups.
func (n *Node) FuncStack() []ast.Node {
	var rev []ast.Node
	for cur := n; cur != nil; cur = cur.Parent {
		if cur.Decl != nil {
			rev = append(rev, cur.Decl)
		}
	}
	out := make([]ast.Node, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// InTestFile reports whether the node is declared in a _test.go file.
func (g *Graph) InTestFile(n *Node) bool {
	if n.Decl == nil {
		return false
	}
	f := g.Fset.File(n.Decl.Pos())
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// WriteDOT dumps the subgraph rooted at one package in Graphviz DOT
// form: every node declared in pkgPath plus every callee they reach,
// one edge per (caller, callee, kind). `make lint-graph PKG=...`
// renders it; the fixture tests assert on its lines.
func (g *Graph) WriteDOT(w io.Writer, pkgPath string) error {
	type line struct{ from, to, kind string }
	var lines []line
	seen := make(map[line]bool)
	for _, n := range g.Nodes {
		if n.Pkg == nil || n.Pkg.Path != pkgPath {
			continue
		}
		for _, e := range n.Out {
			l := line{n.Name(), e.To.Name(), string(e.Kind)}
			if !seen[l] {
				seen[l] = true
				lines = append(lines, l)
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		a, b := lines[i], lines[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.kind < b.kind
	})
	if _, err := fmt.Fprintf(w, "digraph %q {\n", pkgPath); err != nil {
		return err
	}
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "  %q -> %q [label=%q];\n", l.from, l.to, l.kind); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
