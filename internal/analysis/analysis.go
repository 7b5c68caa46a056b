// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary, just large enough to
// host conman's repo-specific invariant checker (lockcheck) and to
// drive it through `go vet -vettool=conmanvet`.
//
// The build environment deliberately has no module proxy access, so
// instead of depending on x/tools this package implements the three
// pieces the real framework would provide:
//
//   - the Analyzer/Pass/Diagnostic types (analysis.go),
//   - a type-checking package loader fed by compiler export data
//     (load.go) — the same data `go vet` hands every vet tool,
//   - the cmd/go unitchecker wire protocol (unitchecker.go): -V=full
//     version handshake, -flags discovery, and vet.cfg processing.
//
// The API mirrors x/tools closely on purpose: if a future environment
// gains network access, the analyzers port to the real framework by
// changing imports only.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant checker: a name, a documentation
// string, and the function that inspects a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must
	// be a valid Go identifier.
	Name string

	// Doc is the summary printed by `conmanvet help`.
	Doc string

	// Run applies the analyzer to one package. It reports findings via
	// pass.Report and returns an optional result (unused by this
	// driver, kept for x/tools signature compatibility).
	Run func(*Pass) (interface{}, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass is the interface between one analyzer run and the driver: the
// syntax, type information and report sink for a single package.
type Pass struct {
	// Analyzer is the checker being run.
	Analyzer *Analyzer

	// Fset maps token positions to file/line/column.
	Fset *token.FileSet

	// Files are the parsed syntax trees of the package, including its
	// in-package test files when driven by `go vet`.
	Files []*ast.File

	// Pkg is the type-checked package.
	Pkg *types.Package

	// TypesInfo carries the type-checker's findings for the syntax in
	// Files: uses, definitions, selections, and expression types.
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message. The driver
// prefixes the analyzer name when rendering.
type Diagnostic struct {
	Pos     token.Pos
	Message string

	// Analyzer is filled in by the driver so multichecker output can
	// attribute findings; Run functions may leave it empty.
	Analyzer string
}
