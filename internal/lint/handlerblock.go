package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HandlerBlock flags blocking operations inside simulator event handlers.
// The discrete-event engine is single-threaded: a handler that parks on a
// channel, a WaitGroup, or a mutex held by code that cannot run until the
// handler returns does not slow the simulation down — it deadlocks it.
//
// Handler roots are the function values passed to the well-known
// registration calls (sim.Engine.At/After, sim.NewLane/NewTimer,
// netsim.Host.SetHandler, netsim.Network.AddTap/Notify — matched by name
// so test fixtures and future packages are covered too). From each root
// the analyzer walks statically-resolvable calls into same-package
// functions (depth-limited) and flags:
//
//   - channel sends and receives outside a select with a default case,
//   - selects without a default case,
//   - sync.WaitGroup.Wait and sync.Cond.Wait,
//   - invoking a function-typed value while a sync.Mutex/RWMutex is held
//     (the callback can re-enter and self-deadlock).
var HandlerBlock = &Analyzer{
	Name: "handlerblock",
	Doc:  "flags blocking operations reachable from sim/netsim/ctrlplane event handler registrations",
	Run:  runHandlerBlock,
}

// registrationMethods name the calls whose function-typed arguments become
// event handlers. Matching is by callee name: the simulator's registration
// surface is small and distinctively named, and a false positive is one
// suppression away.
var registrationMethods = map[string]bool{
	"At": true, "After": true, "SetHandler": true, "AddTap": true, "Notify": true,
	"NewLane": true, "NewTimer": true,
}

var blockingWaits = map[string]string{
	"(*sync.WaitGroup).Wait": "sync.WaitGroup.Wait",
	"(*sync.Cond).Wait":      "sync.Cond.Wait",
}

var lockNames = map[string]bool{
	"(*sync.Mutex).Lock": true, "(*sync.RWMutex).Lock": true, "(*sync.RWMutex).RLock": true,
}

var unlockNames = map[string]bool{
	"(*sync.Mutex).Unlock": true, "(*sync.RWMutex).Unlock": true, "(*sync.RWMutex).RUnlock": true,
}

func runHandlerBlock(pass *Pass) error {
	w := &hbWalker{
		pass:     pass,
		decls:    map[types.Object]*ast.FuncDecl{},
		visited:  map[ast.Node]bool{},
		reported: map[token.Pos]bool{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					w.decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !registrationMethods[calleeName(call)] {
				return true
			}
			for _, arg := range call.Args {
				if tv, ok := pass.TypesInfo.Types[arg]; ok {
					if _, isFunc := tv.Type.Underlying().(*types.Signature); isFunc {
						w.walkRoot(arg, 0)
					}
				}
			}
			return true
		})
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	fun := call.Fun
	// An explicit instantiation, NewLane[T](...), names its generic callee.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

type hbWalker struct {
	pass     *Pass
	decls    map[types.Object]*ast.FuncDecl
	visited  map[ast.Node]bool
	reported map[token.Pos]bool
}

const hbMaxDepth = 4

// walkRoot resolves a handler-valued expression to a function body and
// scans it.
func (w *hbWalker) walkRoot(expr ast.Expr, depth int) {
	switch e := expr.(type) {
	case *ast.FuncLit:
		w.walkBody(e, e.Body, depth)
	case *ast.Ident:
		if fd := w.decls[w.pass.TypesInfo.Uses[e]]; fd != nil {
			w.walkBody(fd, fd.Body, depth)
		}
	case *ast.SelectorExpr:
		if fd := w.decls[w.pass.TypesInfo.Uses[e.Sel]]; fd != nil {
			w.walkBody(fd, fd.Body, depth)
		}
	case *ast.CallExpr:
		// A call producing the handler (adapter pattern): walk the factory
		// too; its body contains the eventual closure.
		w.walkRoot(e.Fun, depth)
	}
}

func (w *hbWalker) walkBody(key ast.Node, body *ast.BlockStmt, depth int) {
	if body == nil || depth > hbMaxDepth || w.visited[key] {
		return
	}
	w.visited[key] = true

	// Channel ops inside any select are judged by the select itself: with
	// a default case they are non-blocking by construction; without one
	// the select is flagged once rather than per-clause.
	var selects []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		selects = append(selects, sel)
		if !selectHasDefault(sel) {
			w.report(sel.Pos(), "select without a default case blocks the event loop")
		}
		return true
	})
	inSelect := func(pos token.Pos) bool {
		for _, s := range selects {
			if s.Pos() <= pos && pos < s.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.SendStmt:
			if !inSelect(nn.Pos()) {
				w.report(nn.Pos(), "channel send can block inside an event handler; use select with default or buffer outside the engine")
			}
		case *ast.UnaryExpr:
			if nn.Op == token.ARROW && !inSelect(nn.Pos()) {
				w.report(nn.Pos(), "channel receive can block inside an event handler; use select with default")
			}
		case *ast.CallExpr:
			if fn := w.staticCallee(nn); fn != nil {
				if what, bad := blockingWaits[fn.FullName()]; bad {
					w.report(nn.Pos(), "%s blocks inside an event handler", what)
				} else if fd := w.decls[fn]; fd != nil {
					w.walkBody(fd, fd.Body, depth+1)
				}
			}
		case *ast.FuncLit:
			// Nested literals are usually re-scheduled callbacks; they run
			// as engine events themselves, so scan them too.
			w.walkBody(nn, nn.Body, depth+1)
			return false
		}
		return true
	})

	w.scanLockHeld(body, map[types.Object]bool{})
}

// scanLockHeld walks a statement list tracking which mutexes are held and
// flags dynamic (function-valued) calls made while any lock is held.
func (w *hbWalker) scanLockHeld(block *ast.BlockStmt, held map[types.Object]bool) {
	for _, stmt := range block.List {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if fn := w.staticCallee(call); fn != nil {
					if lockNames[fn.FullName()] {
						if obj := w.receiverObj(call); obj != nil {
							held[obj] = true
						}
						continue
					}
					if unlockNames[fn.FullName()] {
						if obj := w.receiverObj(call); obj != nil {
							delete(held, obj)
						}
						continue
					}
				}
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held for the rest of the
			// function; nothing to clear.
			continue
		case *ast.BlockStmt:
			w.scanLockHeld(s, copyHeld(held))
			continue
		case *ast.IfStmt:
			w.scanLockHeld(s.Body, copyHeld(held))
			if els, ok := s.Else.(*ast.BlockStmt); ok {
				w.scanLockHeld(els, copyHeld(held))
			}
			continue
		case *ast.ForStmt:
			w.scanLockHeld(s.Body, copyHeld(held))
			continue
		case *ast.RangeStmt:
			w.scanLockHeld(s.Body, copyHeld(held))
			continue
		}
		if len(held) > 0 {
			w.flagDynamicCalls(stmt)
		}
	}
}

func copyHeld(held map[types.Object]bool) map[types.Object]bool {
	out := make(map[types.Object]bool, len(held))
	for k, v := range held {
		if v {
			out[k] = true
		}
	}
	return out
}

// flagDynamicCalls reports calls through function-typed values (fields,
// parameters, variables) in stmt — the callback-under-lock hazard.
func (w *hbWalker) flagDynamicCalls(stmt ast.Stmt) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var obj types.Object
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			obj = w.pass.TypesInfo.Uses[fun]
		case *ast.SelectorExpr:
			obj = w.pass.TypesInfo.Uses[fun.Sel]
		default:
			return true
		}
		if v, ok := obj.(*types.Var); ok {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				w.report(call.Pos(), "callback %s invoked while a mutex is held; it can re-enter the handler and deadlock", v.Name())
			}
		}
		return true
	})
}

// staticCallee resolves a call to the *types.Func it statically invokes,
// or nil for dynamic calls.
func (w *hbWalker) staticCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = w.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = w.pass.TypesInfo.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// receiverObj resolves the receiver expression of a method call (mu.Lock,
// s.mu.Lock) to the variable identity of the mutex.
func (w *hbWalker) receiverObj(call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch recv := sel.X.(type) {
	case *ast.Ident:
		return w.pass.TypesInfo.Uses[recv]
	case *ast.SelectorExpr:
		return w.pass.TypesInfo.Uses[recv.Sel]
	}
	return nil
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func (w *hbWalker) report(pos token.Pos, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.Reportf(pos, format, args...)
}
