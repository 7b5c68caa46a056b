// Package pairedstate checks that module code which installs kernel
// state also knows how to take it back out.
//
// CONMan modules own the kernel state they create: when the NM deletes
// a rule or a pipe goes away, the module must remove exactly what it
// installed (the paper's complexity argument depends on modules being
// self-cleaning). The drift this catches is the half-pair: someone adds
// a k.AddFoo() on the install path and never writes the k.DelFoo() on
// any delete path, so torn-down pipes leak routes, filters, labels or
// sockets in the shared kernel.
//
// Mechanically, in any package whose path contains "modules":
//
//   - an installer is a call to a method named Add*, Define*, Register*
//     or SetLabelSpace on a value of (named) type Kernel;
//   - its removers are the matching Del*/Remove*/Drop*, Undefine*,
//     Unregister*/Deregister*, or Clear*/Unset* names;
//   - a remover call counts if it is reachable from a delete-path root
//     — a method of the same module named DeleteRule, Delete*,
//     PipeDeleted, Shutdown, Close, Stop or Teardown, followed through
//     same-module method calls — or if it appears inside any function
//     literal of the module (the undo-closure convention: the undos a
//     module's Install* methods return ARE the delete path);
//   - an installer with no reachable remover is reported at the call
//     site.
//
// When the state is genuinely owned by someone else (device-lifetime
// addresses installed by the constructor, sockets rebound rather than
// deleted), annotate the call line:
//
//	k.AddAddr(iface, p) //conmanvet:owned-elsewhere — device-lifetime
package pairedstate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"conman/internal/analysis"
)

// Analyzer is the pairedstate analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "pairedstate",
	Doc:  "check kernel-state installer calls in modules have a remover on a delete path",
	Run:  run,
}

const ownedMarker = "conmanvet:owned-elsewhere"

// deleteRoots are method names that begin a delete path.
var deleteRoots = map[string]bool{
	"DeleteRule":  true,
	"PipeDeleted": true,
	"Shutdown":    true,
	"Close":       true,
	"Stop":        true,
	"Teardown":    true,
}

// installCall is one installer call site awaiting a remover.
type installCall struct {
	pos    token.Pos
	method string // e.g. "AddFilter"
	module string
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !strings.Contains(pass.Pkg.Path(), "modules") {
		return nil, nil
	}

	// funcs groups the package's functions by owning module: methods by
	// receiver type, constructors by named result type.
	type modFuncs struct {
		methods map[string]*ast.FuncDecl
		ctors   []*ast.FuncDecl
	}
	mods := map[string]*modFuncs{}
	owned := map[int]bool{} // lines carrying the owned-elsewhere escape

	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, ownedMarker) {
					owned[pass.Fset.Position(c.Slash).Line] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			mod := owningModule(pass, fd)
			if mod == "" {
				continue
			}
			mf := mods[mod]
			if mf == nil {
				mf = &modFuncs{methods: map[string]*ast.FuncDecl{}}
				mods[mod] = mf
			}
			if fd.Recv != nil {
				mf.methods[fd.Name.Name] = fd
			} else {
				mf.ctors = append(mf.ctors, fd)
			}
		}
	}

	for mod, mf := range mods {
		var installs []installCall
		removers := map[string]bool{}

		// Pass 1: installers anywhere in the module's functions, and
		// removers inside any function literal (undo closures run on
		// the delete path by construction).
		all := append([]*ast.FuncDecl(nil), mf.ctors...)
		for _, fd := range mf.methods {
			all = append(all, fd)
		}
		for _, fd := range all {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					collectKernelCalls(pass, lit.Body, func(name string, pos token.Pos) {
						removers[name] = true
					})
					// Installers inside closures still count as
					// installs, so keep walking the literal too.
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name, pos, ok := kernelCall(pass, call)
				if !ok || !isInstaller(name) {
					return true
				}
				if owned[pass.Fset.Position(pos).Line] {
					return true
				}
				installs = append(installs, installCall{pos: pos, method: name, module: mod})
				return true
			})
		}

		// Pass 2: removers reachable from the delete roots through
		// same-module method calls.
		seen := map[string]bool{}
		var queue []string
		for name := range mf.methods {
			if deleteRoots[name] || strings.HasPrefix(name, "Delete") {
				queue = append(queue, name)
			}
		}
		for len(queue) > 0 {
			name := queue[0]
			queue = queue[1:]
			if seen[name] {
				continue
			}
			seen[name] = true
			fd := mf.methods[name]
			if fd == nil {
				continue
			}
			collectKernelCalls(pass, fd.Body, func(kname string, pos token.Pos) {
				removers[kname] = true
			})
			for _, callee := range sameModuleCalls(pass, fd.Body, mod) {
				if !seen[callee] {
					queue = append(queue, callee)
				}
			}
		}

		for _, in := range installs {
			if !removerCovers(in.method, removers) {
				pass.Reportf(in.pos,
					"%s installs kernel state via %s but no matching remover (%s) is reachable from a delete path (DeleteRule/PipeDeleted/Shutdown/Close/Stop/Teardown or an undo closure); add one or annotate //conmanvet:owned-elsewhere",
					in.module, in.method, strings.Join(removerNames(in.method), "/"))
			}
		}
	}
	return nil, nil
}

// owningModule attributes a function to a module type: the receiver's
// named type for methods, the first named in-package result type for
// plain functions (constructor convention).
func owningModule(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if tv, ok := pass.TypesInfo.Types[fd.Recv.List[0].Type]; ok {
			if n := namedOf(tv.Type); n != nil {
				return n.Obj().Name()
			}
		}
		return ""
	}
	if fd.Type.Results == nil {
		return ""
	}
	for _, r := range fd.Type.Results.List {
		tv, ok := pass.TypesInfo.Types[r.Type]
		if !ok {
			continue
		}
		n := namedOf(tv.Type)
		if n == nil || n.Obj().Pkg() != pass.Pkg {
			continue
		}
		if _, isStruct := n.Underlying().(*types.Struct); isStruct {
			return n.Obj().Name()
		}
	}
	return ""
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// kernelCall classifies call as a method call on a value of named type
// Kernel and returns the method name.
func kernelCall(pass *analysis.Pass, call *ast.CallExpr) (string, token.Pos, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok {
		return "", 0, false
	}
	n := namedOf(tv.Type)
	if n == nil || n.Obj().Name() != "Kernel" {
		return "", 0, false
	}
	return sel.Sel.Name, call.Pos(), true
}

// collectKernelCalls invokes fn for every Kernel method call in body.
func collectKernelCalls(pass *analysis.Pass, body ast.Node, fn func(name string, pos token.Pos)) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, pos, ok := kernelCall(pass, call); ok {
			fn(name, pos)
		}
		return true
	})
}

// sameModuleCalls lists names of methods of module mod called in body.
func sameModuleCalls(pass *analysis.Pass, body ast.Node, mod string) []string {
	var out []string
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok {
			return true
		}
		if nm := namedOf(tv.Type); nm != nil && nm.Obj().Name() == mod && nm.Obj().Pkg() == pass.Pkg {
			out = append(out, sel.Sel.Name)
		}
		return true
	})
	return out
}

// isInstaller reports whether a Kernel method name installs state. The
// character after the verb must be upper case so that getters like
// AddrOf do not match Add.
func isInstaller(name string) bool {
	if name == "SetLabelSpace" {
		return true
	}
	for _, p := range []string{"Add", "Define", "Register"} {
		if strings.HasPrefix(name, p) && len(name) > len(p) &&
			name[len(p)] >= 'A' && name[len(p)] <= 'Z' {
			return true
		}
	}
	return false
}

// removerNames lists the acceptable remover name stems for an
// installer method name. A remover call whose name begins with any
// stem satisfies the pair (DelRouteWhere covers AddRoute).
func removerNames(installer string) []string {
	switch {
	case installer == "SetLabelSpace":
		return []string{"ClearLabelSpace", "UnsetLabelSpace"}
	case strings.HasPrefix(installer, "Add"):
		rest := installer[len("Add"):]
		return []string{"Del" + rest, "Remove" + rest, "Drop" + rest}
	case strings.HasPrefix(installer, "Define"):
		return []string{"Undefine" + installer[len("Define"):]}
	case strings.HasPrefix(installer, "Register"):
		rest := installer[len("Register"):]
		return []string{"Unregister" + rest, "Deregister" + rest}
	}
	return nil
}

func removerCovers(installer string, removers map[string]bool) bool {
	stems := removerNames(installer)
	for r := range removers {
		for _, stem := range stems {
			if strings.HasPrefix(r, stem) {
				return true
			}
		}
	}
	return false
}
