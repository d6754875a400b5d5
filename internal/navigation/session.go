package navigation

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrNotInContext is returned when a traversal is attempted from a node
// that is not a member of the session's current context.
var ErrNotInContext = errors.New("navigation: node not in current context")

// ErrNoSuchEdge is returned when the current context offers no edge of the
// requested kind from the current position.
var ErrNoSuchEdge = errors.New("navigation: no such traversal from here")

// ErrNoHistory is returned by Back and Forward when the session's
// navigation history has no entry in the requested direction.
var ErrNoHistory = errors.New("navigation: no history in that direction")

// Visit records one step of a session's history.
type Visit struct {
	// Context is the resolved context name ("" for the hub of none).
	Context string
	// NodeID is the visited node ("_index" for a hub page).
	NodeID string
}

// Session tracks a user's position in the navigation space: the current
// node and, crucially, the context through which it was reached. This is
// the paper's §2 museum semantics — the same painting answers "Next"
// differently when entered via its author than via its movement.
//
// Besides the append-only trail (the analytics log of every position the
// session occupied), a Session keeps a genuine navigation history in the
// sense of Brewster & Jeffrey's "A Model of Navigation History": a list
// of entries with a current cursor. Navigating somewhere new truncates
// the forward part of the list and appends; Back and Forward move the
// cursor without growing the list; revisiting the current position is a
// reload and leaves the history untouched. Traversals (Next, Prev, Up,
// Select) always act from the cursor's position — a session that went
// Back is mid-history, and its Next is the next of where it stands, not
// of the trail tip.
//
// A Session is safe for concurrent use: one visitor may have several
// in-flight requests (tabs, prefetching agents) mutating the same trail.
type Session struct {
	model *ResolvedModel

	mu      sync.Mutex
	context *ResolvedContext
	nodeID  string // current node, or HubID when on the entry page
	history []Visit
	// nav is the navigation-history list and cur the cursor into it;
	// nav[cur] is always the current position once the session entered a
	// context. Back/forward move cur; a navigation truncates nav[cur+1:]
	// and appends. The front is capped at the trail limit by advancing
	// the slice start (the append realloc compacts the backing array
	// once per ~limit steps, so the cap is amortized O(1) per step).
	nav []Visit
	cur int
	// limit caps the trail at its most-recent limit visits (0 keeps
	// everything). The internal buffer trims with a little slack so the
	// cap costs one copy per limit/4 steps, not one per step; History
	// and State always expose exactly the most-recent limit.
	limit int
}

// SetTrailLimit caps the session's trail at its most-recent n visits
// (0 restores unlimited growth) and trims immediately. Long-lived
// sessions — a crawler walking a million pages on one cookie — keep
// bounded memory and bounded persistence records; navigation semantics
// never read the trimmed tail, so traversal behaviour is unchanged.
func (s *Session) SetTrailLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = n
	if n > 0 && len(s.history) > n {
		s.history = trimTrail(s.history, n)
	}
	s.trimNavLocked()
}

// trimNavLocked caps the navigation-history list at the trail limit by
// dropping its oldest entries — but never the current one or anything
// forward of it, so Back simply bottoms out earlier and Forward is
// unaffected. Dropping advances the slice start; the next append that
// outgrows the (shrunken) capacity reallocates and compacts, so the
// amortized cost per navigation is O(1) and the backing array stays
// within a small constant of the limit.
func (s *Session) trimNavLocked() {
	if s.limit <= 0 {
		return
	}
	for len(s.nav) > s.limit && s.cur > 0 {
		s.nav = s.nav[1:]
		s.cur--
	}
}

// navigateLocked applies one navigation to the history list, per the
// Brewster–Jeffrey semantics: navigating to the current position is a
// reload and changes nothing; navigating anywhere else discards the
// forward history (the entries a Back had stepped away from), appends
// the new position, and moves the cursor to it.
func (s *Session) navigateLocked(v Visit) {
	if len(s.nav) == 0 {
		s.nav = append(s.nav, v)
		s.cur = 0
		return
	}
	if s.nav[s.cur] == v {
		return // reload: history is untouched
	}
	// Discarded forward entries may be overwritten in place: every
	// exported view of the history (State, NavHistory) is a copy.
	s.nav = append(s.nav[:s.cur+1], v)
	s.cur = len(s.nav) - 1
	s.trimNavLocked()
}

// recordVisitLocked appends a visit, trimming the trail once it
// overruns the cap by a quarter (amortized O(1) per step).
func (s *Session) recordVisitLocked(v Visit) {
	s.history = append(s.history, v)
	if s.limit > 0 && len(s.history) > s.limit+s.limit/4 {
		s.history = trimTrail(s.history, s.limit)
	}
}

// trailLocked is the externally visible trail: the most-recent limit
// visits (the buffer may briefly hold up to limit/4 more).
func (s *Session) trailLocked() []Visit {
	h := s.history
	if s.limit > 0 && len(h) > s.limit {
		h = h[len(h)-s.limit:]
	}
	return h
}

// trimTrail copies the most-recent limit visits into a fresh slice
// (with trim slack), releasing the old backing array.
func trimTrail(h []Visit, limit int) []Visit {
	trimmed := make([]Visit, limit, limit+limit/4+1)
	copy(trimmed, h[len(h)-limit:])
	return trimmed
}

// NewSession starts a session over a resolved model.
func NewSession(model *ResolvedModel) *Session {
	return &Session{model: model}
}

// Model returns the session's resolved model (the one the session was
// created with, or last rebased onto).
func (s *Session) Model() *ResolvedModel {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.model
}

// EnterContext moves the session into the named context at the given node
// (or at the hub when nodeID is HubID or empty and the structure has one).
func (s *Session) EnterContext(contextName, nodeID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enterLocked(contextName, nodeID)
}

// enterLocked is EnterContext with s.mu held.
func (s *Session) enterLocked(contextName, nodeID string) error {
	rc := s.model.Context(contextName)
	if rc == nil {
		return fmt.Errorf("navigation: unknown context %q", contextName)
	}
	if nodeID == "" {
		if rc.Def.Access.HasHub() {
			nodeID = HubID
		} else if len(rc.Members) > 0 {
			nodeID = rc.Members[0].ID()
		} else {
			return fmt.Errorf("navigation: context %q is empty", contextName)
		}
	}
	// The visit holds the model's strings, never the caller's: a name
	// cut out of a request would keep the whole request line alive for
	// as long as the session remembers the visit.
	if nodeID == HubID {
		nodeID = HubID // the constant, not the caller's copy of it
	} else if i := rc.Position(nodeID); i >= 0 {
		nodeID = rc.Members[i].ID()
	} else {
		return fmt.Errorf("%w: %q in %q", ErrNotInContext, nodeID, contextName)
	}
	s.context = rc
	s.nodeID = nodeID
	v := Visit{Context: rc.Name, NodeID: nodeID}
	s.recordVisitLocked(v)
	s.navigateLocked(v)
	return nil
}

// Context returns the current context, or nil before EnterContext.
func (s *Session) Context() *ResolvedContext {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.context
}

// Location returns the current context and node id as one consistent
// snapshot. Callers that need both must use this rather than separate
// Context/Here calls, which could interleave with a concurrent
// traversal on the same session.
func (s *Session) Location() (*ResolvedContext, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.context, s.nodeID
}

// Here returns the current node, or nil when on a hub page.
func (s *Session) Here() *Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.context == nil || s.nodeID == HubID {
		return nil
	}
	return s.context.Member(s.nodeID)
}

// AtHub reports whether the session is on the context's entry page.
func (s *Session) AtHub() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.context != nil && s.nodeID == HubID
}

// History returns the visit trail in order (capped at the trail limit).
func (s *Session) History() []Visit {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Visit(nil), s.trailLocked()...)
}

// follow moves along the first out-edge of the given kind.
func (s *Session) follow(kind EdgeKind) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.context == nil {
		return fmt.Errorf("navigation: no current context")
	}
	for _, e := range s.context.OutEdges(s.nodeID) {
		if e.Kind == kind {
			s.nodeID = e.To
			v := Visit{Context: s.context.Name, NodeID: e.To}
			s.recordVisitLocked(v)
			s.navigateLocked(v)
			return nil
		}
	}
	return fmt.Errorf("%w: %s from %q in %q", ErrNoSuchEdge, kind, s.nodeID, s.context.Name)
}

// Next moves to the following member of the current context.
func (s *Session) Next() error { return s.follow(EdgeNext) }

// Prev moves to the preceding member of the current context.
func (s *Session) Prev() error { return s.follow(EdgePrev) }

// Up moves to the context's entry page.
func (s *Session) Up() error { return s.follow(EdgeUp) }

// Select moves from a hub page to the named member.
func (s *Session) Select(nodeID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.context == nil {
		return fmt.Errorf("navigation: no current context")
	}
	for _, e := range s.context.OutEdges(s.nodeID) {
		if e.Kind == EdgeMember && e.To == nodeID {
			s.nodeID = e.To
			v := Visit{Context: s.context.Name, NodeID: e.To}
			s.recordVisitLocked(v)
			s.navigateLocked(v)
			return nil
		}
	}
	return fmt.Errorf("%w: member %q from %q in %q", ErrNoSuchEdge, nodeID, s.nodeID, s.context.Name)
}

// Back moves the cursor one entry toward the start of the navigation
// history — the browser's Back button over the session's traversal
// history. The history list itself is unchanged, so a later Forward
// returns here; a later navigation discards the forward part instead
// (truncate-on-new-navigation). Back fails with ErrNoHistory at the
// start of the history, and with a resolution error when the target
// entry no longer exists in the session's (possibly rebased) model —
// the session then stays where it is.
func (s *Session) Back() error { return s.seek(-1) }

// Forward moves the cursor one entry toward the end of the navigation
// history — it undoes a Back, and only a Back: after a new navigation
// there is no forward history. It fails with ErrNoHistory at the end
// of the history.
func (s *Session) Forward() error { return s.seek(+1) }

// seek moves the history cursor by delta (±1), re-resolving the target
// entry against the current model before committing.
func (s *Session) seek(delta int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.cur + delta
	if len(s.nav) == 0 || target < 0 || target >= len(s.nav) {
		return fmt.Errorf("%w (cursor %d of %d)", ErrNoHistory, s.cur, len(s.nav))
	}
	v := s.nav[target]
	rc, err := s.model.resolve(v, "history entry")
	if err != nil {
		return err
	}
	s.cur = target
	s.context = rc
	s.nodeID = v.NodeID
	// Re-arriving via history is still a visit the trail logs — the
	// analytics view of "where has this visitor been" includes the
	// positions reached by going back.
	s.recordVisitLocked(v)
	return nil
}

// CanBack reports whether the history has an entry before the cursor.
func (s *Session) CanBack() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur > 0 && len(s.nav) > 0
}

// CanForward reports whether the history has an entry past the cursor.
func (s *Session) CanForward() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur < len(s.nav)-1
}

// NavHistory returns a copy of the navigation-history list and the
// cursor into it (nav[cursor] is the current position). Before any
// EnterContext the list is empty and the cursor 0.
func (s *Session) NavHistory() ([]Visit, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Visit(nil), s.nav...), s.cur
}

// SessionState is the serializable snapshot of a Session: the current
// position plus the full context trail. It is what the server's
// persistence layer writes through a storage.Store so a visitor's
// navigation survives a process restart.
type SessionState struct {
	// Context is the current resolved context name ("" before any
	// EnterContext).
	Context string `json:"context,omitempty"`
	// NodeID is the current node (HubID on an entry page).
	NodeID string `json:"node,omitempty"`
	// History is the visit trail in order.
	History []Visit `json:"history,omitempty"`
	// Nav is the navigation-history list (back/forward entries) and
	// Cursor the index of the current position within it. Records
	// written before histories existed carry neither; restore
	// synthesizes a single-entry history from the position.
	Nav    []Visit `json:"nav,omitempty"`
	Cursor int     `json:"cursor,omitempty"`
}

// State returns a consistent snapshot of the session for serialization.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionState{NodeID: s.nodeID, Cursor: s.cur}
	if s.context != nil {
		st.Context = s.context.Name
	}
	st.History = append([]Visit(nil), s.trailLocked()...)
	st.Nav = append([]Visit(nil), s.nav...)
	return st
}

// AppendRecord appends the durable record of the session's current
// state, expiring at expires (zero for never), to dst: the bytes
// AppendRecord(dst, Record{State: s.State(), Expires: expires})
// appends, encoded straight from the session's own lists under its lock
// instead of from copies of them.
func (s *Session) AppendRecord(dst []byte, expires time.Time) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var context string
	if s.context != nil {
		context = s.context.Name
	}
	return appendRecord(dst, expires, context, s.nodeID, s.trailLocked(), s.nav, s.cur)
}

// resolve re-checks a stored position against the model: its context
// must exist, a hub position needs an access structure with an entry
// page, and a member position needs the node in the context. op names
// the caller in the error.
func (rm *ResolvedModel) resolve(v Visit, op string) (*ResolvedContext, error) {
	rc := rm.Context(v.Context)
	if rc == nil {
		return nil, fmt.Errorf("navigation: %s: unknown context %q", op, v.Context)
	}
	switch {
	case v.NodeID == HubID:
		if !rc.Def.Access.HasHub() {
			return nil, fmt.Errorf("navigation: %s: context %q no longer has an entry page", op, v.Context)
		}
	case rc.Position(v.NodeID) < 0:
		return nil, fmt.Errorf("%w: %s: %q in %q", ErrNotInContext, op, v.NodeID, v.Context)
	}
	return rc, nil
}

// RestoreSession rebuilds a session from a snapshot over the given
// model: the history is restored verbatim (no new visit is appended) and
// the position is re-resolved against the current model. It fails when
// the snapshot's position no longer exists — the model changed under the
// stored trail — in which case the caller should start a fresh session.
func RestoreSession(model *ResolvedModel, state SessionState) (*Session, error) {
	s := NewSession(model)
	s.history = append([]Visit(nil), state.History...)
	if state.Context == "" {
		return s, nil
	}
	rc, err := model.resolve(Visit{Context: state.Context, NodeID: state.NodeID}, "restore")
	if err != nil {
		return nil, err
	}
	s.context = rc
	s.nodeID = state.NodeID
	switch {
	case len(state.Nav) == 0:
		// Pre-history record: the position is the whole known history.
		s.nav = []Visit{{Context: state.Context, NodeID: state.NodeID}}
		s.cur = 0
	case state.Cursor < 0 || state.Cursor >= len(state.Nav):
		return nil, fmt.Errorf("navigation: restore: cursor %d outside history of %d", state.Cursor, len(state.Nav))
	case state.Nav[state.Cursor] != (Visit{Context: state.Context, NodeID: state.NodeID}):
		return nil, fmt.Errorf("navigation: restore: history cursor disagrees with position %s/%s", state.Context, state.NodeID)
	default:
		s.nav = append([]Visit(nil), state.Nav...)
		s.cur = state.Cursor
	}
	return s, nil
}

// Rebase re-resolves the session's position against a newer resolved
// model, so a live visitor follows the navigation structure the pages
// are currently woven with — without it, a session created before a
// model mutation (an access-structure swap, an adaptation cycle) would
// keep answering Next per the old edges while freshly woven pages
// display the new ones. The history is kept verbatim. Rebase fails
// when the position no longer exists in the new model (the context is
// gone, the node left it, the entry page vanished); the session is
// then unchanged and the caller should start a fresh one.
func (s *Session) Rebase(rm *ResolvedModel) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.model == rm {
		return nil
	}
	if s.context == nil {
		s.model = rm
		return nil
	}
	rc, err := rm.resolve(Visit{Context: s.context.Name, NodeID: s.nodeID}, "rebase")
	if err != nil {
		return err
	}
	s.model = rm
	s.context = rc
	return nil
}

// SwitchContext re-enters the current node through another context that
// contains it — the museum visitor turning from the author tour to the
// movement tour at the same painting.
func (s *Session) SwitchContext(contextName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.context == nil || s.nodeID == HubID {
		return fmt.Errorf("navigation: can only switch contexts at a member node")
	}
	return s.enterLocked(contextName, s.nodeID)
}
