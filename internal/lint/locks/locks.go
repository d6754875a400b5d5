// Package locks implements the navlint analyzer that checks mutex
// discipline by abstract interpretation of each function body. Every
// function literal is interpreted as a function of its own, entered
// with nothing held — unless it is passed for a func-typed parameter
// that the method it is passed to calls while holding locks of its
// receiver (App.mutate calls its build function under writeMu). Such a
// literal is entered holding those locks, on the receiver the call
// names. Which parameters a method calls under which locks is computed
// while its body is interpreted and exported as a fact, like the
// acquire summaries.
//
// It tracks which sync.Mutex / sync.RWMutex values are held along every
// statement path and reports:
//
//   - a lock still held at a return (and not covered by a deferred
//     unlock, including unlocks inside deferred closures);
//   - branches of an if/switch/select that disagree about which locks
//     are held when control converges;
//   - a loop body that does not restore the lock state it entered with;
//   - nested acquisition of a mutex that is already held (recursive
//     RLock is tolerated — legal, if inadvisable);
//   - releasing a read lock with Unlock or a write lock with RUnlock;
//   - calling a method that takes a lock the caller already holds on
//     the same receiver. A method's acquire summary is the receiver
//     fields it locks plus what the methods it calls on that receiver
//     acquire, computed to a fixpoint and exported as a fact so the
//     check crosses package boundaries.
//
// Locks are identified by their source expression ("app.mu", "sh.mu"),
// so two shards of a striped lock are different locks; interprocedural
// matching additionally requires the call's receiver expression to
// match the held lock's root, which keeps shard helpers from
// false-positiving. //repro:allow(reason) on an acquisition suppresses
// findings for that lock; on a call, it suppresses the call-site
// checks.
package locks

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/annotations"
)

// Analyzer is the locks rule.
var Analyzer = &analysis.Analyzer{
	Name:      "locks",
	Doc:       "checks that every Lock/RLock is released on all paths and that held locks are never re-acquired, directly or through a callee",
	FactTypes: []analysis.Fact{(*AcquiresFact)(nil), (*CallsUnderFact)(nil)},
	Run:       run,
}

// AcquiresFact summarizes which receiver-field mutexes a method
// acquires, itself or through the methods it calls on its receiver:
// field name → strongest mode taken ('r' or 'w').
type AcquiresFact struct {
	Fields map[string]byte
}

// AFact marks AcquiresFact as an analysis fact.
func (*AcquiresFact) AFact() {}

// CallsUnderFact records which of a method's func-typed parameters it
// calls while holding locks of its receiver: parameter position →
// receiver field → the strongest mode held at such a call ('r' or 'w').
type CallsUnderFact struct {
	Params map[int]map[string]byte
}

// AFact marks CallsUnderFact as an analysis fact.
func (*CallsUnderFact) AFact() {}

// heldLock is one tracked acquisition.
type heldLock struct {
	key     string // source expression of the mutex: "app.mu"
	root    string // expression of the value owning it: "app" ("" if none)
	typeKey string // owning type + field: "repro/internal/core.App.mu" ("" if unknowable)
	mode    byte   // 'r' or 'w'
	pos     token.Pos
	allowed bool // acquisition carries a //repro:allow
	// inherited marks a lock a function literal is entered holding,
	// which its caller releases.
	inherited bool
}

// env is the abstract state at one program point.
type env struct {
	held     []heldLock
	deferred map[string]byte // mutex key → release mode pending at exit
}

func newEnv() *env { return &env{deferred: map[string]byte{}} }

func (e *env) clone() *env {
	c := &env{
		held:     append([]heldLock(nil), e.held...),
		deferred: make(map[string]byte, len(e.deferred)),
	}
	for k, v := range e.deferred {
		c.deferred[k] = v
	}
	return c
}

// signature is a canonical description of the held set, for comparing
// states at merge points.
func (e *env) signature() string {
	keys := make([]string, len(e.held))
	for i, h := range e.held {
		keys[i] = h.key + ":" + string(h.mode)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func (e *env) find(key string) int {
	for i, h := range e.held {
		if h.key == key {
			return i
		}
	}
	return -1
}

type checker struct {
	pass *analysis.Pass
	df   *annotations.File
	// While a method is interpreted, recv names its receiver, params
	// holds its parameters, and paramCalls collects, by parameter
	// position, the receiver fields held where it calls a parameter.
	recv       string
	params     *types.Tuple
	paramCalls map[int]map[string]byte
}

// litArg is the call a function literal is passed to, and its position
// among the call's arguments.
type litArg struct {
	call *ast.CallExpr
	arg  int
}

func run(pass *analysis.Pass) (any, error) {
	// unit is one body to interpret: a declared function's or a
	// function literal's.
	type unit struct {
		decl *ast.FuncDecl
		lit  *ast.FuncLit
		df   *annotations.File
	}
	var funcs, lits []unit
	var decls []*ast.FuncDecl
	passed := map[*ast.FuncLit]litArg{}
	for _, file := range pass.Files {
		df := annotations.Parse(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					funcs = append(funcs, unit{decl: n, df: df})
					decls = append(decls, n)
				}
			case *ast.FuncLit:
				lits = append(lits, unit{lit: n, df: df})
			case *ast.CallExpr:
				for i, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						passed[lit] = litArg{n, i}
					}
				}
			}
			return true
		})
	}
	for fn, s := range summarize(pass.TypesInfo, decls) {
		pass.ExportObjectFact(fn, &AcquiresFact{Fields: s})
	}
	// Declared functions first: interpreting a method finds the
	// parameters it calls under a lock, which the literals passed for
	// them are entered holding.
	for _, u := range funcs {
		c := &checker{pass: pass, df: u.df}
		c.enterDecl(u.decl)
		e := newEnv()
		if !c.interp(u.decl.Body.List, e) {
			c.checkLeaks(e, u.decl.Body.End())
		}
		if len(c.paramCalls) > 0 {
			pass.ExportObjectFact(pass.TypesInfo.Defs[u.decl.Name], &CallsUnderFact{Params: c.paramCalls})
		}
	}
	for _, u := range lits {
		c := &checker{pass: pass, df: u.df}
		e := newEnv()
		if a, ok := passed[u.lit]; ok {
			c.inherit(a, e)
		}
		if !c.interp(u.lit.Body.List, e) {
			c.checkLeaks(e, u.lit.Body.End())
		}
	}
	return nil, nil
}

// enterDecl prepares c to interpret fd: a method's receiver name and
// parameters.
func (c *checker) enterDecl(fd *ast.FuncDecl) {
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		c.recv = fd.Recv.List[0].Names[0].Name
		c.params = c.pass.TypesInfo.Defs[fd.Name].Type().(*types.Signature).Params()
	}
}

// noteParamCall records the receiver fields e holds where the method
// being interpreted calls one of its func-typed parameters.
func (c *checker) noteParamCall(call *ast.CallExpr, e *env) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || c.params == nil || len(e.held) == 0 {
		return
	}
	for i := 0; i < c.params.Len(); i++ {
		if c.params.At(i) != c.pass.TypesInfo.Uses[id] {
			continue
		}
		for _, h := range e.held {
			field, ok := strings.CutPrefix(h.key, c.recv+".")
			if !ok || h.root != c.recv || h.allowed {
				continue
			}
			if c.paramCalls == nil {
				c.paramCalls = map[int]map[string]byte{}
			}
			if c.paramCalls[i] == nil {
				c.paramCalls[i] = map[string]byte{}
			}
			join(c.paramCalls[i], field, h.mode)
		}
	}
}

// inherit makes e hold what a literal passed as a's argument is called
// under: the receiver fields the callee's CallsUnderFact names for that
// parameter, on the receiver the call names. A //repro:allow on the
// call suppresses it, as it suppresses the call-site checks.
func (c *checker) inherit(a litArg, e *env) {
	sel, ok := a.call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if s := c.pass.TypesInfo.Selections[sel]; s == nil || s.Kind() != types.MethodVal {
		return
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	if _, allowed := c.df.AllowedAt(a.call.Pos()); allowed {
		return
	}
	var fact CallsUnderFact
	if !c.pass.ImportObjectFact(fn, &fact) {
		return
	}
	arg := a.arg
	if sig := fn.Type().(*types.Signature); sig.Variadic() {
		arg = min(arg, sig.Params().Len()-1)
	}
	root := types.ExprString(sel.X)
	recvType := typeKeyOf(c.pass.TypesInfo.Types[sel.X].Type)
	for f, m := range fact.Params[arg] {
		h := heldLock{key: root + "." + f, root: root, mode: m, pos: a.call.Pos(), inherited: true}
		if recvType != "" {
			h.typeKey = recvType + "." + f
		}
		e.held = append(e.held, h)
	}
}

// summarize computes the acquire summary of every method in decls: the
// receiver-field mutexes it locks anywhere in its body, joined with the
// summaries of the methods it calls on that same receiver, to a
// fixpoint ('w' dominates 'r').
func summarize(info *types.Info, decls []*ast.FuncDecl) map[*types.Func]map[string]byte {
	out := map[*types.Func]map[string]byte{}
	calls := map[*types.Func][]*types.Func{}
	for _, fd := range decls {
		if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
			continue
		}
		fn := info.Defs[fd.Name].(*types.Func)
		recv := fd.Recv.List[0].Names[0].Name
		own := map[string]byte{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if op, target, ok := mutexOp(info, call); ok {
				field, ok := target.(*ast.SelectorExpr)
				if ok && isIdent(field.X, recv) && (op == "Lock" || op == "RLock") {
					join(own, field.Sel.Name, mode(op))
				}
				return true
			}
			// A method of the receiver's own type, not one promoted
			// from an embedded field.
			if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal && len(s.Index()) == 1 && isIdent(sel.X, recv) {
				calls[fn] = append(calls[fn], s.Obj().(*types.Func).Origin())
			}
			return true
		})
		out[fn] = own
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for _, callee := range callees {
				for f, m := range out[callee] {
					changed = join(out[fn], f, m) || changed
				}
			}
		}
	}
	return out
}

// join records that field f is taken in mode m ('w' dominates 'r') and
// reports whether s changed.
func join(s map[string]byte, f string, m byte) bool {
	if s[f] == 'w' || s[f] == m {
		return false
	}
	s[f] = m
	return true
}

func isIdent(x ast.Expr, name string) bool {
	id, ok := x.(*ast.Ident)
	return ok && id.Name == name
}

// mode is the lock mode an acquire or release operation names.
func mode(op string) byte {
	if op == "RLock" || op == "RUnlock" {
		return 'r'
	}
	return 'w'
}

// mutexOp classifies call as a sync mutex operation, returning the
// method name and the receiver expression.
func mutexOp(info *types.Info, call *ast.CallExpr) (op string, target ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil, false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", nil, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	t := recv.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", nil, false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", nil, false
	}
	return fn.Name(), sel.X, true
}

// describe computes the identity of a mutex expression.
func (c *checker) describe(target ast.Expr) (key, root, typeKey string) {
	key = types.ExprString(target)
	if sel, ok := target.(*ast.SelectorExpr); ok {
		root = types.ExprString(sel.X)
		if tk := typeKeyOf(c.pass.TypesInfo.Types[sel.X].Type); tk != "" {
			typeKey = tk + "." + sel.Sel.Name
		}
	}
	return key, root, typeKey
}

// typeKeyOf renders a (possibly pointer-to) named type as
// "pkgpath.Name".
func typeKeyOf(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// interp walks stmts updating e; the return reports whether every path
// through stmts terminates (return/panic/branch).
func (c *checker) interp(stmts []ast.Stmt, e *env) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			c.scanCalls(s, e)
			c.checkLeaks(e, s.Pos())
			return true
		case *ast.BranchStmt: // break/continue/goto leave the path
			return true
		case *ast.BlockStmt:
			if c.interp(s.List, e) {
				return true
			}
		case *ast.LabeledStmt:
			if c.interp([]ast.Stmt{s.Stmt}, e) {
				return true
			}
		case *ast.DeferStmt:
			c.applyDefer(s, e)
		case *ast.GoStmt:
			// The goroutine body is not on this path.
		case *ast.IfStmt:
			if c.interpIf(s, e) {
				return true
			}
		case *ast.ForStmt:
			if s.Init != nil {
				c.scanCalls(s.Init, e)
			}
			if s.Cond != nil {
				c.scanCalls(s.Cond, e)
			}
			c.interpLoop(s.Body, s.Pos(), e)
			if s.Cond == nil && !hasBreak(s.Body) {
				return true // for{} without break never falls through
			}
		case *ast.RangeStmt:
			c.scanCalls(s.X, e)
			c.interpLoop(s.Body, s.Pos(), e)
		case *ast.SwitchStmt:
			if c.interpSwitch(s.Init, s.Tag, s.Body, false, e) {
				return true
			}
		case *ast.TypeSwitchStmt:
			if c.interpSwitch(s.Init, nil, s.Body, false, e) {
				return true
			}
		case *ast.SelectStmt:
			if c.interpSwitch(nil, nil, s.Body, true, e) {
				return true
			}
		case *ast.ExprStmt:
			if isPanic(c.pass.TypesInfo, s.X) {
				return true
			}
			c.scanCalls(s, e)
		default:
			c.scanCalls(s, e)
		}
	}
	return false
}

// interpIf interprets an if/else chain and merges the branch states.
func (c *checker) interpIf(s *ast.IfStmt, e *env) bool {
	if s.Init != nil {
		c.scanCalls(s.Init, e)
	}
	c.scanCalls(s.Cond, e)
	thenEnv := e.clone()
	thenTerm := c.interp(s.Body.List, thenEnv)
	elseEnv := e.clone()
	elseTerm := false
	switch el := s.Else.(type) {
	case *ast.BlockStmt:
		elseTerm = c.interp(el.List, elseEnv)
	case *ast.IfStmt:
		elseTerm = c.interpIf(el, elseEnv)
	case nil:
		// No else: elseEnv is the fall-through state.
	}
	return c.merge(s.Pos(), e, []*env{thenEnv, elseEnv}, []bool{thenTerm, elseTerm})
}

// interpSwitch interprets switch/type-switch/select bodies. implicitNone
// distinguishes select (some case always runs) from switch, where a
// missing default means the whole statement may be a no-op.
func (c *checker) interpSwitch(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, isSelect bool, e *env) bool {
	if init != nil {
		c.scanCalls(init, e)
	}
	if tag != nil {
		c.scanCalls(tag, e)
	}
	var envs []*env
	var terms []bool
	hasDefault := false
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, x := range cl.List {
				c.scanCalls(x, e)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				c.scanCalls(cl.Comm, e)
			}
			stmts = cl.Body
		}
		ce := e.clone()
		envs = append(envs, ce)
		terms = append(terms, c.interp(stmts, ce))
	}
	if !isSelect && !hasDefault {
		// Possibly no case matches: entry state flows through.
		envs = append(envs, e.clone())
		terms = append(terms, false)
	}
	if len(envs) == 0 {
		return isSelect // empty select blocks forever
	}
	return c.merge(body.Pos(), e, envs, terms)
}

// interpLoop interprets a loop body, which must restore the lock state
// it entered with.
func (c *checker) interpLoop(body *ast.BlockStmt, pos token.Pos, e *env) {
	le := e.clone()
	term := c.interp(body.List, le)
	if !term && le.signature() != e.signature() {
		c.pass.Reportf(pos, "lock state changes across this loop body (%s before, %s after an iteration)",
			describeSig(e.signature()), describeSig(le.signature()))
	}
}

// merge reconciles branch exit states into *e; returns true when every
// branch terminated.
func (c *checker) merge(pos token.Pos, e *env, envs []*env, terms []bool) bool {
	var live []*env
	for i, be := range envs {
		if !terms[i] {
			live = append(live, be)
		}
	}
	if len(live) == 0 {
		return true
	}
	first := live[0].signature()
	for _, be := range live[1:] {
		if be.signature() != first {
			if !c.allowedSig(live) {
				c.pass.Reportf(pos, "branches disagree about held locks when control merges (%s vs %s)",
					describeSig(first), describeSig(be.signature()))
			}
			break
		}
	}
	// Continue with the state holding the fewest locks: conservative
	// against cascading nested-acquisition noise after a divergence.
	best := live[0]
	for _, be := range live[1:] {
		if len(be.held) < len(best.held) {
			best = be
		}
	}
	*e = *best
	return false
}

// allowedSig reports whether every lock involved in a divergence was
// acquired under a //repro:allow.
func (c *checker) allowedSig(envs []*env) bool {
	any := false
	for _, be := range envs {
		for _, h := range be.held {
			any = true
			if !h.allowed {
				return false
			}
		}
	}
	return any
}

func describeSig(sig string) string {
	if sig == "" {
		return "none held"
	}
	return sig
}

// checkLeaks reports locks still held (and not deferred-released) at an
// exit point.
func (c *checker) checkLeaks(e *env, at token.Pos) {
	for _, h := range e.held {
		if _, ok := e.deferred[h.key]; ok || h.allowed || h.inherited {
			continue
		}
		c.pass.Reportf(h.pos, "%s is locked here but not unlocked on the path leaving the function at line %d",
			h.key, c.pass.Fset.Position(at).Line)
	}
}

// applyDefer handles deferred releases, including unlocks buried in a
// deferred closure.
func (c *checker) applyDefer(s *ast.DeferStmt, e *env) {
	record := func(call *ast.CallExpr) {
		op, target, ok := mutexOp(c.pass.TypesInfo, call)
		if !ok || (op != "Unlock" && op != "RUnlock") {
			return
		}
		key, _, _ := c.describe(target)
		e.deferred[key] = mode(op)
	}
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				record(call)
			}
			return true
		})
		return
	}
	record(s.Call)
}

// scanCalls visits every call in a non-control statement or expression,
// in source order, applying mutex operations and call-site checks.
// Function literals are skipped: their bodies run when called, not
// here.
func (c *checker) scanCalls(n ast.Node, e *env) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if op, target, ok := mutexOp(c.pass.TypesInfo, n); ok {
				c.applyMutexOp(op, target, n.Pos(), e)
				return true
			}
			c.checkCall(n, e)
			c.noteParamCall(n, e)
		}
		return true
	})
}

func (c *checker) applyMutexOp(op string, target ast.Expr, pos token.Pos, e *env) {
	key, root, typeKey := c.describe(target)
	_, allowed := c.df.AllowedAt(pos)
	switch op {
	case "Lock", "RLock":
		m := mode(op)
		if i := e.find(key); i >= 0 {
			prev := e.held[i]
			// Recursive RLock is legal; everything else deadlocks.
			if (m == 'w' || prev.mode == 'w') && !allowed && !prev.allowed {
				c.pass.Reportf(pos, "%s is acquired here while already held since line %d (deadlock)",
					key, c.pass.Fset.Position(prev.pos).Line)
			}
			return
		}
		e.held = append(e.held, heldLock{key: key, root: root, typeKey: typeKey, mode: m, pos: pos, allowed: allowed})
	case "Unlock", "RUnlock":
		i := e.find(key)
		if i < 0 {
			return // released by a caller or helper; out of scope
		}
		if e.held[i].mode != mode(op) && !allowed && !e.held[i].allowed {
			c.pass.Reportf(pos, "%s was %s-locked at line %d but released with %s",
				key, modeName(e.held[i].mode), c.pass.Fset.Position(e.held[i].pos).Line, op)
		}
		e.held = append(e.held[:i], e.held[i+1:]...)
	}
}

func modeName(m byte) string {
	if m == 'r' {
		return "read"
	}
	return "write"
}

// checkCall applies the interprocedural check to a non-mutex call:
// calling a method whose acquire summary takes a lock the caller holds
// on the same receiver.
func (c *checker) checkCall(call *ast.CallExpr, e *env) {
	if len(e.held) == 0 {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || types.IsInterface(sig.Recv().Type()) {
		return
	}
	if _, allowed := c.df.AllowedAt(call.Pos()); allowed {
		return
	}
	recvStr := types.ExprString(sel.X)
	recvType := typeKeyOf(c.pass.TypesInfo.Types[sel.X].Type)
	if recvType == "" {
		return
	}
	for field, am := range c.calleeAcquires(fn) {
		tk := recvType + "." + field
		for _, h := range e.held {
			if h.typeKey != tk || h.root != recvStr || h.allowed {
				continue
			}
			if am == 'w' || h.mode == 'w' {
				c.pass.Reportf(call.Pos(), "calling %s acquires %s while it is already %s-locked at line %d (deadlock)",
					fn.Name(), h.key, modeName(h.mode), c.pass.Fset.Position(h.pos).Line)
				return
			}
		}
	}
}

// calleeAcquires returns fn's acquire summary: the fact this package's
// sweep or an imported package exported for it.
func (c *checker) calleeAcquires(fn *types.Func) map[string]byte {
	var fact AcquiresFact
	c.pass.ImportObjectFact(fn, &fact)
	return fact.Fields
}

func isPanic(info *types.Info, x ast.Expr) bool {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func hasBreak(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
			// break inside these doesn't leave the outer loop; a labeled
			// break would, but the approximation errs toward "has break",
			// which only weakens the never-falls-through claim.
			switch n.(type) {
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				return true // still scan for labeled/nested breaks crudely
			}
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		}
		return !found
	})
	return found
}
