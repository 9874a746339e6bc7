package ssa

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"
)

// Program is a shared, concurrency-safe cache of per-function SSA, so
// the passes of one lint run build each function's IR at most once.
type Program struct {
	mu    sync.Mutex
	funcs map[*ast.FuncDecl]*Func
}

// Source bundles a declaration with its package context.
type Source struct {
	Decl *ast.FuncDecl
	Fset *token.FileSet
	Info *types.Info
}

// NewProgram returns an empty Program.
func NewProgram() *Program {
	return &Program{funcs: map[*ast.FuncDecl]*Func{}}
}

// FuncOf returns the (cached) SSA form of src. Safe for concurrent
// use.
func (p *Program) FuncOf(src Source) *Func {
	p.mu.Lock()
	f, ok := p.funcs[src.Decl]
	if ok {
		p.mu.Unlock()
		return f
	}
	p.mu.Unlock()
	f = Build(src.Decl, src.Fset, src.Info)
	p.mu.Lock()
	if prev, ok := p.funcs[src.Decl]; ok {
		f = prev // another goroutine won the race; keep one canonical Func
	} else {
		p.funcs[src.Decl] = f
	}
	p.mu.Unlock()
	return f
}
