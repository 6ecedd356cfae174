package analysis

import (
	"go/ast"
	"go/types"
)

// obsDir/statsDir are the metric-sink packages: the only places an
// observer implementation may keep package-level state, and the only
// packages whose methods observers may freely call.
const (
	obsDir   = "internal/obs"
	statsDir = "internal/stats"
)

// engineMutators names methods that steer the simulation. An observer
// calling any of them on a module-internal type would make an observed
// run diverge from an unobserved one — exactly the loophole the
// observed≡unobserved differential tests probe dynamically. The list is
// curated from the engine's public mutation surface (device writes,
// engine stepping, state restore, OS-model retirement).
var engineMutators = map[string]bool{
	"Write":             true,
	"WriteTagged":       true,
	"WriteNoFail":       true,
	"WriteRaw":          true,
	"Run":               true,
	"RunN":              true,
	"Step":              true,
	"MarkDead":          true,
	"SetContent":        true,
	"SetObserver":       true,
	"ReportFailure":     true,
	"LoadBitmap":        true,
	"RestoreCheckpoint": true,
	"LoadState":         true,
	"SetState":          true,
	"Retire":            true,
}

// ObserverPurity closes the observed≡unobserved loophole statically:
// methods on types that implement obs.Observer may not assign to
// package-level variables outside internal/obs and internal/stats, and
// may not call known engine mutators on module-internal types. The rule
// is type-aware — it resolves the Observer interface from the loaded
// tree's internal/obs package and checks implementations with
// types.Implements — so renaming a method or embedding another observer
// cannot dodge it. Packages without type information (or trees without an
// internal/obs package) are skipped rather than guessed at.
type ObserverPurity struct{}

// Name implements Rule.
func (*ObserverPurity) Name() string { return "observer-purity" }

// Doc implements Rule.
func (*ObserverPurity) Doc() string {
	return "obs.Observer implementations may not mutate package-level or engine state outside internal/obs and internal/stats"
}

// Check implements Rule.
func (*ObserverPurity) Check(f *File, report func(ast.Node, string, ...any)) {
	if f.IsTest() || f.In(obsDir) || f.In(statsDir) {
		return
	}
	tpkg, info := f.Pkg.TypeInfo()
	if tpkg == nil || info == nil {
		return
	}
	iface := observerInterface(f.Pkg.Mod)
	if iface == nil {
		return
	}
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Body == nil {
			continue
		}
		tname := recvTypeName(fd)
		obj, ok := tpkg.Scope().Lookup(tname).(*types.TypeName)
		if !ok {
			continue
		}
		t := obj.Type()
		if !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
			continue
		}
		checkObserverMethod(fd, tname, info, report)
	}
}

// observerInterface resolves obs.Observer from the loaded tree.
func observerInterface(mod *Module) *types.Interface {
	if mod == nil {
		return nil
	}
	p := mod.byDir[obsDir]
	if p == nil {
		return nil
	}
	tpkg, _ := p.TypeInfo()
	if tpkg == nil {
		return nil
	}
	obj, ok := tpkg.Scope().Lookup("Observer").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

func checkObserverMethod(fd *ast.FuncDecl, tname string, info *types.Info, report func(ast.Node, string, ...any)) {
	method := tname + "." + fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				reportPkgLevelTarget(lhs, method, info, report)
			}
		case *ast.IncDecStmt:
			reportPkgLevelTarget(stmt.X, method, info, report)
		case *ast.CallExpr:
			sel, ok := unparen(stmt.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := info.Selections[sel]
			if s == nil || s.Kind() != types.MethodVal {
				return true
			}
			fn, ok := s.Obj().(*types.Func)
			if !ok || !engineMutators[fn.Name()] || fn.Pkg() == nil {
				return true
			}
			if dir, isModule := dirFor(fn.Pkg().Path()); isModule && dir != obsDir && dir != statsDir {
				report(stmt, "observer method %s calls engine mutator (%s).%s: observers must not steer the simulation, or observed runs diverge from unobserved ones", method, fn.Pkg().Name(), fn.Name())
			}
		}
		return true
	})
}

// reportPkgLevelTarget flags an assignment/inc-dec whose target is
// rooted at a package-level variable outside internal/obs and
// internal/stats.
func reportPkgLevelTarget(lhs ast.Expr, method string, info *types.Info, report func(ast.Node, string, ...any)) {
	expr := unparen(lhs)
	for {
		switch e := expr.(type) {
		case *ast.IndexExpr:
			expr = unparen(e.X)
		case *ast.StarExpr:
			expr = unparen(e.X)
		case *ast.SelectorExpr:
			// pkg.Var = ... roots at the selected object, not the
			// package name.
			if id, ok := unparen(e.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					reportIfPkgVar(info.Uses[e.Sel], e, method, report)
					return
				}
			}
			expr = unparen(e.X)
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e] // := defines a local, never package-level
			}
			reportIfPkgVar(obj, e, method, report)
			return
		default:
			return
		}
	}
}

func reportIfPkgVar(obj types.Object, node ast.Node, method string, report func(ast.Node, string, ...any)) {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return
	}
	if dir, isModule := dirFor(v.Pkg().Path()); isModule && (dir == obsDir || dir == statsDir) {
		return
	}
	report(node, "observer method %s assigns to package-level %s: observers must be pure so observed runs stay byte-identical to unobserved ones", method, v.Name())
}
