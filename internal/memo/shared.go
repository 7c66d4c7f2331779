package memo

import (
	"sync"
	"sync/atomic"
)

// published pairs one table snapshot with the generation number it was
// published under. Readers load the pair with a single atomic pointer
// load, so a snapshot and its generation can never be observed torn —
// the guard loop attributes every mispredict to the generation that
// actually served the hit.
type published struct {
	t   Table
	gen int64
}

// Shared serves one immutable table snapshot (a FlatTable, which has no
// insert path) to an arbitrary number of concurrent readers and supports
// RCU-style OTA refresh: a rebuilt table swaps in atomically without
// stalling in-flight lookups. This is
// the fleet-serving shape of the paper's Fig. 10 deployment — the cloud
// pushes a fresh table and every device picks it up on its next event.
//
// Readers call Load once per event (or per session, for a coarser
// consistency window) and probe the returned snapshot; a snapshot stays
// valid after a swap, it just stops being the latest. Writers build a
// complete table off to the side and publish it with Swap.
//
// Every publication gets a generation number, and the previous
// publication is retained so one bad OTA push can be undone: Rollback
// re-publishes the prior snapshot (the self-healing path the mispredict
// guard takes when shadow verification catches a poisoned table).
type Shared struct {
	p         atomic.Pointer[published]
	prev      atomic.Pointer[published]
	version   atomic.Int64
	swaps     atomic.Int64
	rollbacks atomic.Int64
	// mu serializes publishers (Swap/Rollback) so prev always holds the
	// publication displaced by the current one. Readers never take it.
	mu sync.Mutex
}

// NewShared publishes an initial table (which may be nil — Load then
// returns nil until the first Swap).
func NewShared(t Table) *Shared {
	s := &Shared{}
	if t != nil {
		s.version.Store(1)
		s.p.Store(&published{t: t, gen: 1})
	}
	return s
}

// Load returns the current snapshot. The result is immutable and safe to
// probe from any goroutine; it may be nil if nothing was published yet.
func (s *Shared) Load() Table {
	if pub := s.p.Load(); pub != nil {
		return pub.t
	}
	return nil
}

// LoadGen returns the current snapshot together with the generation it
// was published under — one atomic load, never torn. Generation 0 means
// nothing is published.
func (s *Shared) LoadGen() (Table, int64) {
	if pub := s.p.Load(); pub != nil {
		return pub.t, pub.gen
	}
	return nil, 0
}

// Swap publishes a rebuilt table and returns the new generation number. Readers holding the previous snapshot keep using it
// until their next Load — the RCU grace period is implicit in Go's GC.
// The displaced publication is retained for one Rollback.
func (s *Shared) Swap(t Table) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.version.Add(1)
	s.prev.Store(s.p.Load())
	s.p.Store(&published{t: t, gen: gen})
	s.swaps.Add(1)
	return gen
}

// Rollback re-publishes the snapshot displaced by the last Swap,
// restoring it under its original generation number, and reports that
// generation. It consumes the retained snapshot: a second Rollback (or a
// rollback before any swap, or after a cold start) returns false, and
// the caller must fail safe some other way — the guard loop keeps its
// breaker open in that case. Version keeps counting publications
// monotonically; only the current generation moves backwards.
func (s *Shared) Rollback() (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.prev.Swap(nil)
	if old == nil || old.t == nil {
		return 0, false
	}
	s.p.Store(old)
	s.rollbacks.Add(1)
	return old.gen, true
}

// Version returns the number of publications so far (0 before the first
// one). It is monotonic: a Rollback changes the current generation but
// not the publication count.
func (s *Shared) Version() int64 { return s.version.Load() }

// Generation returns the generation of the currently published table —
// equal to Version() until a Rollback re-publishes an older generation.
func (s *Shared) Generation() int64 {
	if pub := s.p.Load(); pub != nil {
		return pub.gen
	}
	return 0
}

// Swaps returns how many times Swap replaced a published table (the
// initial NewShared publication is not counted).
func (s *Shared) Swaps() int64 { return s.swaps.Load() }

// Rollbacks returns how many times Rollback restored a prior table.
func (s *Shared) Rollbacks() int64 { return s.rollbacks.Load() }
