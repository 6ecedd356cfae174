package analysis

import "go/ast"

// ckptImportPath is the checkpoint wire-format package; a function that
// takes one of its Encoders is serialization code by definition.
const ckptImportPath = "wlreviver/internal/ckpt"

// NoCkptMapOrder flags `range` over a map inside serialization code:
// any function in internal/ckpt, and any function elsewhere that takes
// a ckpt.Encoder parameter (which is every SaveState method and
// encode helper). Checkpoint bytes must be a pure function of state —
// the resume-equals-uninterrupted guarantee compares them byte for
// byte — and Go's randomized map iteration order would leak into them.
// Unlike ordered-map-output this rule needs no sink analysis: in a
// serialization function every statement feeds the image, so the loop
// itself is the finding. Iterate ckpt.KeysU64 instead.
// As in ordered-map-output, a function that calls into sort or slices
// is exempt: the sanctioned fix collects keys by ranging the map once,
// then sorts — that collection loop must not re-fire the rule. Other
// deliberate sites (e.g. a loop computing a commutative checksum)
// carry //lint:ignore with the reason.
type NoCkptMapOrder struct{}

// Name implements Rule.
func (*NoCkptMapOrder) Name() string { return "no-ckpt-map-order" }

// Doc implements Rule.
func (*NoCkptMapOrder) Doc() string {
	return "serialization code (internal/ckpt, SaveState/encode funcs) must not range over maps; use ckpt.KeysU64"
}

// Check implements Rule.
func (*NoCkptMapOrder) Check(f *File, report func(ast.Node, string, ...any)) {
	if f.IsTest() {
		return
	}
	inCkpt := f.In("internal/ckpt")
	encName, hasEnc := f.ImportName(ckptImportPath)
	if !inCkpt && !hasEnc {
		return
	}
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if !inCkpt && !takesEncoder(fd, encName) {
			continue
		}
		if sortsInFunc(f, fd) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMapExpr(f, rng.X) {
				return true
			}
			report(rng, "range over map in serialization code; iteration order leaks into checkpoint bytes — iterate ckpt.KeysU64")
			return true
		})
	}
}

// takesEncoder reports whether the function declares a parameter whose
// type mentions <encName>.Encoder (optionally through a pointer).
func takesEncoder(fd *ast.FuncDecl, encName string) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, p := range fd.Type.Params.List {
		t := p.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		sel, ok := t.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Encoder" {
			continue
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == encName {
			return true
		}
	}
	return false
}
